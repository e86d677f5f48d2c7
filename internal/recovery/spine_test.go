package recovery_test

import (
	"errors"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/storage"
)

// An Abort that stalls on a line a crash destroyed returns ErrLineLost and
// is retried once recovery has repaired the line. Its first attempt must not
// leave its undo bracket open: an open bracket nests under the retry's, so
// the retry never closes the outermost one — no undo residue is charged — and
// recovery's own traffic on the node in between is charged to the dead
// bracket.
func TestStalledAbortClosesItsBracket(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
	mine, theirs := heap.RID{Page: 0, Slot: 0}, heap.RID{Page: 0, Slot: 1}
	seed(t, mgr, []heap.RID{mine, theirs}, 1)
	wf := waterfall.New(waterfall.Config{Nodes: 2})
	db.Attach(hooks.Set{Observer: obs.New(), Waterfall: wf})

	tx, err := mgr.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(mine, []byte{2}); err != nil {
		t.Fatal(err)
	}
	// Node 1 writes the same line's other record: the line, tx's update in
	// it, migrates to node 1, and dies with it.
	other, err := mgr.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Write(theirs, []byte{3}); err != nil {
		t.Fatal(err)
	}
	db.Crash(1)
	if err := db.Abort(0, tx.ID()); !errors.Is(err, machine.ErrLineLost) {
		t.Fatalf("abort against the lost line: %v, want ErrLineLost", err)
	}
	stalled := db.M.Clock(0)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	retry := db.M.Clock(0)
	if retry <= stalled {
		t.Fatalf("recovery charged node 0 nothing (%d -> %d): the test has no window", stalled, retry)
	}
	if err := db.Abort(0, tx.ID()); err != nil {
		t.Fatal(err)
	}

	w := wf.Lookup(int64(tx.ID()))
	if w == nil || w.Outcome != waterfall.OutcomeAborted {
		t.Fatalf("aborted waterfall = %+v", w)
	}
	var undo []waterfall.Segment
	for _, s := range w.Segments {
		if s.Start < retry && s.Start+s.Dur > stalled {
			t.Errorf("segment %+v charged inside the recovery window [%d, %d)", s, stalled, retry)
		}
		if s.Cause == obs.CauseUndo {
			undo = append(undo, s)
		}
	}
	// The stalled attempt's time went to its page fetch; the retry's walk
	// is the one undo residue.
	if len(undo) != 1 || undo[0].Start != retry || w.ByCause[obs.CauseUndo] != undo[0].Dur {
		t.Fatalf("undo segments %+v (total %d), want one: the retry's residue from %d",
			undo, w.ByCause[obs.CauseUndo], retry)
	}
}

// Restart recovery reports progress in batches: a Redo All recovery of a
// few thousand candidates — every one applied — records at most one progress
// event per 256 candidates plus a fixed few (the run's start and attempt,
// the apply phase's plan, per-node scans, each phase's remainder), and the
// apply phase's batches add up to every candidate.
func TestRecoveryProgressIsBatched(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileRedoAll, 4)
	o, wf := obs.New(), waterfall.New(waterfall.Config{Nodes: 4})
	db.Attach(hooks.Set{Observer: o, Waterfall: wf})
	for round := 0; round < 200; round++ {
		for nd := machine.NodeID(0); nd < 4; nd++ {
			tx, err := mgr.Begin(nd)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				rid := heap.RID{Page: storage.PageID(4*int(nd) + i), Slot: uint16(round % 12)}
				if err := tx.Write(rid, []byte{byte(round)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Crash(1)
	rep, err := db.Recover([]machine.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	cands := int64(rep.RedoApplied + rep.RedoSkipped)
	if cands < 2048 {
		t.Fatalf("%d redo candidates: too few to batch", cands)
	}
	if got, bound := o.Count(obs.KindProgress), cands/256+16; got > bound {
		t.Errorf("%d progress events for %d candidates, want <= %d", got, cands, bound)
	}
	for _, ph := range wf.Progress().Snapshot() {
		if ph.Phase == "redo-apply" && (ph.Records != cands || ph.Planned != cands) {
			t.Errorf("%s progress %d of %d planned, want %d", ph.Phase, ph.Records, ph.Planned, cands)
		}
	}
}
