package main

import (
	"bufio"
	"fmt"
	"os"
)

// opKind names a span: the whole transaction, or one of the benchmark's own
// calls into the txn layer.
type opKind uint8

const (
	opTxn opKind = iota
	opBegin
	opRead
	opWrite
	opCommit
	opAbort
)

var opNames = [...]string{"txn", "begin", "read", "write", "commit", "abort"}

// span is one recorded interval. A transaction's spans share its root span
// (Parent is the root's index in the cycle's span list, -1 for the root
// itself); Start is nanoseconds since the round began.
type span struct {
	Parent int32
	Op     opKind
	Node   uint8
	Start  int64
	Dur    int64
}

// writeTrace writes every traced cycle's spans, kept in memory until the
// pass ends, as one JSON document. A span is a row [id, parent, op, node,
// start, dur]: id is its position in the cycle's list, parent the id of its
// transaction's root span (-1 for the root itself), op an index into "ops".
func writeTrace(path, workload string, cycles [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"columns\":[\"id\",\"parent\",\"op\",\"node\",\"start\",\"dur\"],\"ops\":[", workload)
	for i, n := range opNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"cycles\":[")
	for i, spans := range cycles {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString("\n[")
		for id, s := range spans {
			if id > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]", id, s.Parent, s.Op, s.Node, s.Start, s.Dur)
		}
		w.WriteString("]")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
