package main

import (
	"hash/fnv"
	"math/rand"
)

// space lays the records out as internal/workload does: the first half of
// the pages is split into one private partition per node, the second half is
// the shared pool, whose first HotPages pages are the hot set.
type space struct {
	slotsPerPage int
	private      [][]rid
	shared       []rid
}

func newSpace(slotsPerPage int) space {
	sp := space{slotsPerPage: slotsPerPage, private: make([][]rid, nodes)}
	var rids []rid
	for p := 0; p < pages; p++ {
		for s := 0; s < slotsPerPage; s++ {
			rids = append(rids, rid{int32(p), uint16(s)})
		}
	}
	half := len(rids) / 2
	per := half / nodes
	for n := range sp.private {
		sp.private[n] = rids[n*per : (n+1)*per]
	}
	sp.shared = rids[half:]
	return sp
}

func (sp space) records() int { return pages * sp.slotsPerPage }

// index numbers a record densely, for the shadow arrays.
func (sp space) index(r rid) int { return int(r.page)*sp.slotsPerPage + int(r.slot) }

type op struct {
	rid  rid
	read bool
}

type txnOps [opsPerTxn]op

// genStreams makes every node's transaction stream for one cycle. The
// engine sees only these operations; the seed never reaches it.
func genStreams(w workloadDef, sp space, seed int64) [][]txnOps {
	out := make([][]txnOps, nodes)
	hot := w.HotPages * sp.slotsPerPage
	for n := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
		out[n] = make([]txnOps, w.TxnsPerNode)
		for t := range out[n] {
			for o := range out[n][t] {
				pool := sp.private[n]
				if rng.Float64() < w.SharedFrac {
					pool = sp.shared
					if hot > 0 && rng.Float64() < w.HotProb {
						pool = sp.shared[:hot]
					}
				}
				out[n][t][o] = op{rid: pool[rng.Intn(len(pool))], read: rng.Float64() < w.ReadFrac}
			}
		}
	}
	return out
}

// streamHash fingerprints a cycle's operation streams (determinism test and
// the result's environment record).
func streamHash(streams [][]txnOps) uint64 {
	h := fnv.New64a()
	var b [7]byte
	for _, node := range streams {
		for _, t := range node {
			for _, o := range t {
				b[0], b[1], b[2], b[3] = byte(o.rid.page), byte(o.rid.page>>8), byte(o.rid.page>>16), byte(o.rid.page>>24)
				b[4], b[5] = byte(o.rid.slot), byte(o.rid.slot>>8)
				b[6] = 0
				if o.read {
					b[6] = 1
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// value is what transaction t of node n writes in its o-th operation; it is
// unique within a cycle, so a read-back identifies the writer.
func value(n, t, o int) [4]byte {
	return [4]byte{byte(2 + n), byte(t), byte(t >> 8), byte(o)}
}
