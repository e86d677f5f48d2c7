package recovery

import (
	"bytes"
	"fmt"
	"sort"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/wal"
)

// The IFA checker verifies, after restart recovery, the paper's central
// guarantee: *all* effects of active transactions that ran on crashed nodes
// are undone, and *no* effects of transactions on surviving nodes are lost.
// It is an oracle — it uses bookkeeping (committed images, surviving
// transactions' write lists) that the recovery protocols themselves never
// consult.

// CheckIFA examines the database state on behalf of node nd and returns a
// list of violations (empty means IFA holds). It checks:
//
//   - committed durability: every record's last committed image is in
//     place, unless a surviving active transaction has overwritten it;
//   - survivor preservation: every surviving active transaction's latest
//     update to each record is intact (value and, under undo tagging, tag);
//   - crash annulment: no crashed transaction's value remains; records they
//     touched read as their last committed images;
//   - lock-space consistency: surviving active transactions hold the locks
//     their nodes recorded; crashed transactions hold none.
func (db *DB) CheckIFA(nd machine.NodeID) []string {
	var violations []string
	add := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	type expectation struct {
		img     []byte
		version uint64
		source  string
		tag     machine.NodeID // expected undo tag (NoNode unless survivor-active)
		txn     wal.TxnID
		lsn     wal.LSN // log position of the expected write (survivor-active)
	}
	expected := make(map[heap.RID]expectation)

	// Start from the last committed images.
	for rid, ci := range db.committedImages() {
		expected[rid] = expectation{img: ci.img, version: ci.version, source: "committed", tag: machine.NoNode}
	}
	// Surviving active transactions' newest writes take precedence.
	crashedWrites := make(map[heap.RID]wal.TxnID)
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		if st.live() {
			for _, w := range st.writes {
				e, ok := expected[w.rid]
				if !ok || w.version > e.version {
					tag := machine.NoNode
					if db.Cfg.Protocol.UndoTagging() {
						tag = st.id.Node()
					}
					expected[w.rid] = expectation{img: w.img, version: w.version, source: "survivor-active", tag: tag, txn: st.id, lsn: w.lsn}
				}
			}
		}
		if st.crashed.Load() {
			for _, w := range st.writes {
				crashedWrites[w.rid] = st.id
			}
		}
	})
	layout := db.Store.Layout

	// Deterministic iteration order for readable reports.
	rids := make([]heap.RID, 0, len(expected))
	for rid := range expected {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].Page != rids[j].Page {
			return rids[i].Page < rids[j].Page
		}
		return rids[i].Slot < rids[j].Slot
	})

	for _, rid := range rids {
		e := expected[rid]
		sd, err := db.Read(nd, rid)
		if err != nil {
			add("%v: unreadable after recovery: %v", rid, err)
			continue
		}
		got := SlotImage(layout, sd.Flags, sd.Data)
		if !bytes.Equal(got, e.img) {
			kind := "committed value lost"
			if e.source == "survivor-active" {
				kind = fmt.Sprintf("surviving transaction %v's update lost", e.txn)
			} else if t, ok := crashedWrites[rid]; ok {
				kind = fmt.Sprintf("crashed transaction %v's effect not undone", t)
			}
			add("%v: %s (got flags=%#x data=%.8x... v%d, want flags=%#x data=%.8x... v%d)%s",
				rid, kind, got[0], got[1:], sd.Version, e.img[0], e.img[1:], e.version,
				db.writeHistory(rid))
		}
		if db.Cfg.Protocol.UndoTagging() && sd.Tag != e.tag {
			// A missing tag on a surviving active update is acceptable
			// when the update's undo record is on stable store (the slot
			// passed through a steal or a lost-and-reinstalled line):
			// the protocol's undo guarantee is "tag in cache OR undo
			// record stable", and recovery uses whichever exists.
			tagless := sd.Tag == machine.NoNode && e.source == "survivor-active" &&
				e.lsn > 0 && db.Logs[e.txn.Node()].ForcedLSN() >= e.lsn
			if !tagless {
				add("%v: undo tag = %d, want %d (%s)", rid, sd.Tag, e.tag, e.source)
			}
		}
	}

	// Lock space.
	snap, err := db.Locks.Snapshot(nd)
	if err != nil {
		add("lock space unreadable: %v", err)
		return violations
	}
	heldIn := make(map[wal.TxnID]map[uint64]bool)
	for _, ls := range snap {
		for _, e := range append(ls.Holders, ls.Waiters...) {
			m := heldIn[e.Txn]
			if m == nil {
				m = make(map[uint64]bool)
				heldIn[e.Txn] = m
			}
			m[uint64(ls.Name)] = true
		}
	}
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		switch {
		case st.live():
			for _, hl := range st.locks {
				if !heldIn[st.id][uint64(hl.Name)] {
					add("lock %v of surviving %v lost from lock space", hl.Name, st.id)
				}
			}
		case st.crashed.Load():
			if n := len(heldIn[st.id]); n > 0 {
				add("crashed %v still appears in %d LCBs", st.id, n)
			}
		}
	})
	return violations
}

// writeHistory summarizes which transactions wrote rid (for violation
// diagnostics). Caller must not hold a node mutex.
func (db *DB) writeHistory(rid heap.RID) string {
	out := ""
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		for _, w := range st.writes {
			if w.rid == rid {
				out += fmt.Sprintf(" [%v %v crashed=%v wrote v%d]", st.id, st.stat(), st.crashed.Load(), w.version)
			}
		}
	})
	return out
}

// VerifyCommittedDurability re-reads every committed record and confirms it
// matches the oracle (a weaker, always-applicable check usable during
// normal operation).
func (db *DB) VerifyCommittedDurability(nd machine.NodeID) []string {
	var violations []string
	type pair struct {
		rid heap.RID
		ci  committedImage
	}
	var pairs []pair
	overwritten := make(map[heap.RID]bool)
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		if st.stat() == TxnActive {
			for _, w := range st.writes {
				overwritten[w.rid] = true
			}
		}
	})
	for rid, ci := range db.committedImages() {
		if !overwritten[rid] {
			pairs = append(pairs, pair{rid, ci})
		}
	}
	layout := db.Store.Layout
	for _, p := range pairs {
		sd, err := db.Read(nd, p.rid)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%v: unreadable: %v", p.rid, err))
			continue
		}
		if !bytes.Equal(SlotImage(layout, sd.Flags, sd.Data), p.ci.img) {
			violations = append(violations, fmt.Sprintf("%v: committed image mismatch", p.rid))
		}
	}
	return violations
}
