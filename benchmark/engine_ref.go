package main

import (
	"errors"
	"fmt"

	"smdb/benchmark/refengine/heap"
	"smdb/benchmark/refengine/machine"
	"smdb/benchmark/refengine/recovery"
	"smdb/benchmark/refengine/storage"
	"smdb/benchmark/refengine/txn"
)

// refEngine adapts refengine/, the frozen reference engine. It is
// engine_live.go over the other import path, and is frozen with it.
type refEngine struct {
	db  *recovery.DB
	mgr *txn.Manager
	rep *recovery.RecoveryReport // of the last recover
}

type refTx struct{ t *txn.Txn }

func newRefEngine(protocol string, recoveryWorkers int) (*refEngine, error) {
	p, ok := recovery.ParseProtocol(protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", protocol)
	}
	db, err := recovery.New(recovery.Config{
		Machine:         machine.Config{Nodes: nodes, Lines: machineLines},
		Protocol:        p,
		LinesPerPage:    linesPerPage,
		RecsPerLine:     recsPerLine,
		Pages:           pages,
		LockTableLines:  lockTableLines,
		RecoveryWorkers: recoveryWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &refEngine{db: db, mgr: txn.NewManager(db)}, nil
}

func refRID(r rid) heap.RID { return heap.RID{Page: storage.PageID(r.page), Slot: r.slot} }

func refErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, txn.ErrBlocked):
		return errBlocked
	case errors.Is(err, txn.ErrDeadlock):
		return errDeadlock
	}
	return err
}

func (e *refEngine) slotsPerPage() int { return e.db.Store.Layout.SlotsPerPage() }

func (e *refEngine) seed() error {
	for p := 0; p < pages; p++ {
		t, err := e.mgr.Begin(0)
		if err != nil {
			return err
		}
		for s := 0; s < e.slotsPerPage(); s++ {
			r := rid{int32(p), uint16(s)}
			if err := t.Insert(refRID(r), []byte{1, byte(p), byte(s)}); err != nil {
				return fmt.Errorf("seeding %v: %w", r, err)
			}
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	return e.db.Checkpoint(0)
}

func (e *refEngine) begin(node int) (txHandle, error) {
	t, err := e.mgr.Begin(machine.NodeID(node))
	if err != nil {
		return nil, err
	}
	return refTx{t}, nil
}

func (e *refEngine) retained() int {
	n := 0
	for _, l := range e.db.Logs {
		n += l.Len()
	}
	return n
}

func (e *refEngine) crash(node int) { e.db.Crash(machine.NodeID(node)) }

func (e *refEngine) recover(node int) ([]uint64, error) {
	rep, err := e.db.Recover([]machine.NodeID{machine.NodeID(node)})
	if err != nil {
		return nil, err
	}
	e.rep = rep
	out := make([]uint64, len(rep.Aborted))
	for i, id := range rep.Aborted {
		out[i] = uint64(id)
	}
	return out, nil
}

func (e *refEngine) restartNode(node int) error { return e.db.RestartNode(machine.NodeID(node)) }
func (e *refEngine) checkIFA() []string         { return e.db.CheckIFA(0) }
func (e *refEngine) verifyDurability() []string { return e.db.VerifyCommittedDurability(0) }
func (e *refEngine) checkpoint() error          { return e.db.Checkpoint(0) }

func (e *refEngine) read(r rid) ([]byte, error) {
	sd, err := e.db.Read(0, refRID(r))
	if err != nil || !sd.Occupied() {
		return nil, err
	}
	return sd.Data, nil
}

func (t refTx) id() uint64 { return uint64(t.t.ID()) }

func (t refTx) read(r rid) error {
	_, err := t.t.Read(refRID(r))
	return refErr(err)
}

func (t refTx) write(r rid, val []byte) error { return refErr(t.t.Write(refRID(r), val)) }
func (t refTx) commit() error                 { return t.t.Commit() }
func (t refTx) abort() error                  { return t.t.Abort() }
