package recovery

import (
	"bytes"
	"cmp"
	"fmt"
	"sort"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/wal"
)

// The IFA checker verifies, after restart recovery, the paper's central
// guarantee: *all* effects of active transactions that ran on crashed nodes
// are undone, and *no* effects of transactions on surviving nodes are lost.
// It works out what each slot must hold at check time from the logs, the
// stable database and each transaction's own control state, and shares no
// code with restart recovery. A slot's committed image is, by the first rule
// that applies (DESIGN.md says why): (1) the after image of its newest
// committed update record; (2) the before image of its oldest retained
// update record; (3) the slot on the stable page; (4) the empty slot. A
// newer stable slot that no retained record wrote overrides (1) and (2): a
// checkpoint discarded its record.

// committedImage is rid's committed image by the rules above, given their
// records and the versions retained records wrote, and the version that
// wrote it where known; the stable slot is read with Disk.Peek.
func (db *DB) committedImage(rid heap.RID, newest, oldest *wal.Record, written map[uint64]bool) ([]byte, uint64) {
	layout := db.Store.Layout
	var sd heap.SlotData // the empty slot if the page was never written
	off := (1+int(rid.Slot)/layout.RecsPerLine)*layout.LineSize + int(rid.Slot)%layout.RecsPerLine*layout.SlotBytes()
	if raw := db.Disk.Peek(rid.Page, off, layout.SlotBytes()); raw != nil {
		sd = heap.DecodeSlotFromLine(layout, raw, 0)
	}
	stable := SlotImage(layout, sd.Flags, sd.Data)
	switch rec := cmp.Or(newest, oldest); {
	case rec == nil || sd.Version > rec.Version && !written[sd.Version]:
		return stable, sd.Version
	case newest != nil:
		return newest.After, newest.Version
	case bytes.Equal(oldest.Before, stable):
		return stable, sd.Version // the version that wrote the before image
	}
	return oldest.Before, 0
}

// updateOf returns the update record of st's i-th write, from its node's log
// or, while AblatedNoLBM defers it, st's newest deferred one for the slot; ok
// is false if a crash or a checkpoint took it. Caller holds st's node mutex.
func (db *DB) updateOf(st *txnState, i int) (rec wal.Record, ok bool) {
	w := st.writes[i]
	if w.lsn != 0 {
		rec, ok = db.Logs[st.id.Node()].Get(w.lsn)
		return rec, ok && rec.Txn == st.id && rec.Page == w.rid.Page && rec.Slot == w.rid.Slot
	}
	for j := len(st.deferred) - 1; j >= 0; j-- {
		if rec = st.deferred[j]; rec.Page == w.rid.Page && rec.Slot == w.rid.Slot {
			return rec, true
		}
	}
	return wal.Record{}, false
}

// expectation is what the checker expects of one slot.
type expectation struct {
	rid     heap.RID
	img     []byte
	version uint64
	source  string
	tag     machine.NodeID // expected undo tag (NoNode unless survivor-active)
	txn     wal.TxnID
	lsn     wal.LSN // log position of the expected write (survivor-active)
}

// expectations returns, in slot order, what each slot a committed or
// structural update or a surviving transaction wrote must hold; the slots
// crashed transactions wrote, with the writer; and those active ones wrote.
func (db *DB) expectations() (expected []expectation, crashed map[heap.RID]wal.TxnID, active map[heap.RID]bool) {
	// One read of every log, and of the update records AblatedNoLBM defers.
	committed, aborted, ntaEnded := make(map[wal.TxnID]bool), make(map[wal.TxnID]bool), make(map[uint64]bool)
	written := make(map[uint64]bool)
	var updates []*wal.Record
	for _, l := range db.Logs {
		l.Each(1, func(r *wal.Record) bool { // the records outlive the walk
			switch r.Type {
			case wal.TypeCommit:
				committed[r.Txn] = true
			case wal.TypeAbort:
				aborted[r.Txn] = true
			case wal.TypeNTAEnd:
				ntaEnded[r.NTA] = true
			case wal.TypeUpdate:
				updates = append(updates, r)
			case wal.TypeCLR:
				written[r.Version] = true
			}
			return true
		})
	}
	slots := make(map[heap.RID]bool) // whose committed image is checked
	var survivors []expectation
	crashed, active = make(map[heap.RID]wal.TxnID), make(map[heap.RID]bool)
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		for i := 0; st.stat() != TxnCommitted && i < len(st.deferred); i++ {
			updates = append(updates, &st.deferred[i]) // never written again
		}
		tag := machine.NoNode
		if db.Cfg.Protocol.UndoTagging() {
			tag = st.id.Node()
		}
		for i, w := range st.writes {
			if st.crashed.Load() {
				crashed[w.rid] = st.id
			}
			switch {
			case st.stat() == TxnCommitted:
				slots[w.rid] = true
			case st.live():
				if rec, ok := db.updateOf(st, i); ok {
					survivors = append(survivors, expectation{rid: w.rid, img: rec.After, version: rec.Version, source: "survivor-active", tag: tag, txn: st.id, lsn: w.lsn})
				}
				fallthrough
			case st.stat() == TxnActive:
				active[w.rid] = true
			}
		}
	})
	// Rules 1 and 2. An update is committed if its transaction has a commit and
	// no abort record (a parallel branch is rolled back if a sibling's commit
	// fails), or if it is structural and its NTA ended or its writer never crashed.
	newest, oldest := make(map[heap.RID]*wal.Record), make(map[heap.RID]*wal.Record)
	for _, r := range updates {
		rid := heap.RID{Page: r.Page, Slot: r.Slot}
		written[r.Version] = true
		if o := oldest[rid]; o == nil || r.Version < o.Version {
			oldest[rid] = r
		}
		slots[rid] = slots[rid] || r.NTA != 0
		if n := newest[rid]; (n == nil || r.Version > n.Version) &&
			(r.NTA != 0 && (ntaEnded[r.NTA] || !db.lookup(r.Txn).crashed.Load()) || committed[r.Txn] && !aborted[r.Txn]) {
			newest[rid] = r
		}
	}
	bySlot := make(map[heap.RID]expectation, len(slots))
	for rid, ok := range slots {
		if ok {
			img, version := db.committedImage(rid, newest[rid], oldest[rid], written)
			bySlot[rid] = expectation{rid: rid, img: img, version: version, source: "committed", tag: machine.NoNode}
		}
	}
	// Survivors' newest writes win (a survivor's commit record may be logged).
	for _, s := range survivors {
		if e, ok := bySlot[s.rid]; !ok || s.version >= e.version {
			bySlot[s.rid] = s
		}
	}
	for _, e := range bySlot {
		expected = append(expected, e)
	}
	sort.Slice(expected, func(i, j int) bool {
		a, b := expected[i].rid, expected[j].rid
		return a.Page < b.Page || a.Page == b.Page && a.Slot < b.Slot
	})
	return expected, crashed, active
}

// CheckIFA examines the database state on behalf of node nd and returns a
// list of violations (empty means IFA holds). It checks:
//
//   - committed durability: every slot a committed transaction or a
//     structural update wrote holds its committed image, unless a surviving
//     active transaction has overwritten it;
//   - survivor preservation: every surviving active transaction's latest
//     update to each record is intact (value and, under undo tagging, tag);
//   - crash annulment: records crashed transactions touched read as their
//     committed images;
//   - lock-space consistency: surviving active transactions hold the locks
//     their nodes recorded; crashed transactions hold none.
func (db *DB) CheckIFA(nd machine.NodeID) []string {
	var violations []string
	add := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	expected, crashedWrites, _ := db.expectations()
	layout := db.Store.Layout
	for _, e := range expected {
		sd, err := db.Read(nd, e.rid)
		if err != nil {
			add("%v: unreadable after recovery: %v", e.rid, err)
			continue
		}
		got := SlotImage(layout, sd.Flags, sd.Data)
		if !bytes.Equal(got, e.img) {
			kind := "committed value lost"
			if e.source == "survivor-active" {
				kind = fmt.Sprintf("surviving transaction %v's update lost", e.txn)
			} else if t, ok := crashedWrites[e.rid]; ok {
				kind = fmt.Sprintf("crashed transaction %v's effect not undone", t)
			}
			add("%v: %s (got flags=%#x data=%.8x... v%d, want flags=%#x data=%.8x... v%d)%s",
				e.rid, kind, got[0], got[1:], sd.Version, e.img[0], e.img[1:], e.version,
				db.writeHistory(e.rid))
		}
		if db.Cfg.Protocol.UndoTagging() && sd.Tag != e.tag {
			// A survivor's update may lose its tag (a steal, a reinstalled
			// line) once its undo record is stable: the guarantee is "tag
			// in cache OR undo record stable", and recovery uses either.
			tagless := sd.Tag == machine.NoNode && e.source == "survivor-active" &&
				e.lsn > 0 && db.Logs[e.txn.Node()].ForcedLSN() >= e.lsn
			if !tagless {
				add("%v: undo tag = %d, want %d (%s)", e.rid, sd.Tag, e.tag, e.source)
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
			if heldIn[e.Txn] == nil {
				heldIn[e.Txn] = make(map[uint64]bool)
			}
			heldIn[e.Txn][uint64(ls.Name)] = true
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
// diagnostics), naming the version each write's record carries or that a
// crash or a checkpoint took the record. Caller must not hold a node mutex.
func (db *DB) writeHistory(rid heap.RID) (out string) {
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		for i, w := range st.writes {
			if w.rid != rid {
				continue
			}
			wrote := "record gone"
			if rec, ok := db.updateOf(st, i); ok {
				wrote = fmt.Sprintf("wrote v%d", rec.Version)
			}
			out += fmt.Sprintf(" [%v %v crashed=%v %s]", st.id, st.stat(), st.crashed.Load(), wrote)
		}
	})
	return out
}

// VerifyCommittedDurability confirms that every slot a committed or
// structural update wrote and no active transaction overwrote holds its
// committed image (a weaker check, usable during normal operation).
func (db *DB) VerifyCommittedDurability(nd machine.NodeID) []string {
	var violations []string
	expected, _, active := db.expectations()
	layout := db.Store.Layout
	for _, e := range expected {
		if e.source != "committed" || active[e.rid] {
			continue
		}
		sd, err := db.Read(nd, e.rid)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%v: unreadable: %v", e.rid, err))
			continue
		}
		if !bytes.Equal(SlotImage(layout, sd.Flags, sd.Data), e.img) {
			violations = append(violations, fmt.Sprintf("%v: committed image mismatch", e.rid))
		}
	}
	return violations
}
