package recovery_test

import (
	"bytes"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
)

// Direct unit tests for the stale-tag reconciliation path of undoTagScan: a
// cached slot whose undo tag names a *surviving* node. The tag is legitimate
// only if that node's log shows an update of exactly this (rid, version) by a
// transaction that is still active and uncrashed; otherwise the tag is debris
// from a commit/crash race and must be cleared without touching the data.
// Organic stale-surviving tags need a precisely timed race (FlushPage strips
// tags before they hit disk), so these tests synthesize the post-race state
// directly on the cached line and then drive a real recovery over it.

// plantTag rewrites rid's undo tag in place from node nd, caching the line at
// nd — the synthesized leftover of a tag-write that lost a race with commit.
func plantTag(t *testing.T, db *recovery.DB, nd machine.NodeID, rid heap.RID, tag machine.NodeID) {
	t.Helper()
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, nd, line); err != nil {
		t.Fatal(err)
	}
	werr := db.Store.WriteTagIn(&sec, rid, tag)
	if err := sec.Leave(); err != nil || werr != nil {
		t.Fatal(werr, err)
	}
}

// TestUndoTagScanStaleCommittedTag: the tag names surviving node 1, whose log
// does contain an update of this slot version — but by a transaction that has
// already committed. Recovery must clear the tag and leave the committed data
// untouched (no spurious undo).
func TestUndoTagScanStaleCommittedTag(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 3)
	rid := heap.RID{Page: 1, Slot: 0}
	seed(t, mgr, []heap.RID{rid}, 1)

	// Node 1 updates and commits; commit clears the tag normally.
	tx, err := mgr.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{7, 7, 7}
	if err := tx.Write(rid, want); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Re-plant tag=1 from node 0: node 1's log has this (rid, version),
	// but the transaction is committed, so the tag is stale.
	plantTag(t, db, 0, rid, 1)

	db.Crash(2)
	rep, err := db.Recover([]machine.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Tag != machine.NoNode {
		t.Errorf("stale tag not cleared: tag=%d", sd.Tag)
	}
	if !bytes.HasPrefix(sd.Data, want) {
		t.Errorf("committed data disturbed: got %v want %v", sd.Data, want)
	}
	if rep.UndoApplied != 0 {
		t.Errorf("stale-tag clear must not undo: UndoApplied=%d", rep.UndoApplied)
	}
	mustCheckIFA(t, db, 0)
}

// TestUndoTagScanUnknownTaggerTag: the tag names a surviving node whose log
// has no update of this slot version at all (index miss). Same verdict —
// stale, cleared, data intact.
func TestUndoTagScanUnknownTaggerTag(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 3)
	rid := heap.RID{Page: 1, Slot: 2}
	seed(t, mgr, []heap.RID{rid}, 5)

	// Node 1 never touched rid; a tag naming it cannot be legitimate.
	plantTag(t, db, 0, rid, 1)

	db.Crash(2)
	rep, err := db.Recover([]machine.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Tag != machine.NoNode {
		t.Errorf("unknown-tagger tag not cleared: tag=%d", sd.Tag)
	}
	if want := []byte{5, byte(rid.Page), byte(rid.Slot)}; !bytes.HasPrefix(sd.Data, want) {
		t.Errorf("seeded data disturbed: got %v want %v", sd.Data, want)
	}
	if rep.UndoApplied != 0 {
		t.Errorf("stale-tag clear must not undo: UndoApplied=%d", rep.UndoApplied)
	}
	mustCheckIFA(t, db, 0)
}

// TestUndoTagScanLegitimateTagPreserved: the control case — the tag belongs
// to a surviving node's still-active transaction. Recovery must leave it (and
// the uncommitted update) alone, and the transaction must still be able to
// commit afterwards.
func TestUndoTagScanLegitimateTagPreserved(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 3)
	rid := heap.RID{Page: 1, Slot: 1}
	seed(t, mgr, []heap.RID{rid}, 3)

	tx, err := mgr.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{9, 9, 9}
	if err := tx.Write(rid, want); err != nil {
		t.Fatal(err)
	}
	// Migrate the tagged line to node 0's cache so a different survivor
	// is the one that scans it.
	if _, err := db.Read(0, rid); err != nil {
		t.Fatal(err)
	}

	db.Crash(2)
	if _, err := db.Recover([]machine.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Tag != 1 {
		t.Errorf("legitimate tag disturbed: tag=%d", sd.Tag)
	}
	if !bytes.HasPrefix(sd.Data, want) {
		t.Errorf("active update disturbed: got %v want %v", sd.Data, want)
	}
	if err := tx.Commit(); err != nil {
		t.Errorf("surviving txn cannot commit after recovery: %v", err)
	}
	sd, err = db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Tag != machine.NoNode || !bytes.HasPrefix(sd.Data, want) {
		t.Errorf("post-commit state wrong: tag=%d data=%v", sd.Tag, sd.Data)
	}
	mustCheckIFA(t, db, 0)
}
