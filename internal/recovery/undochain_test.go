package recovery

import (
	"bytes"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/wal"
)

// The log keeps no per-transaction state: a transaction's undo chain is its
// update records' PrevLSN, written by the engine from txnState.writes, and
// Checkpoint's low-water mark is the log position noted at Begin.

// TestAbortWalksTheUndoChain: k undoable updates with lock records, a
// structural (NTA) update and another transaction's records between them are
// chained to each other and to nothing else, and Abort undoes all k — the
// repeated slot once, to its pre-transaction value — and leaves the
// structural update alone.
func TestAbortWalksTheUndoChain(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	rids := seedLine(t, db, 0, 1)
	other := seedLine(t, db, 0, 2)
	structural := heap.RID{Page: 3, Slot: 0}

	id, bystander := mustBegin(t, db, 0), mustBegin(t, db, 0)
	update := func(rid heap.RID, v byte) {
		t.Helper()
		runLockSteps(t, db, []lockStep{{id, lock.NameOfRID(rid), lock.Exclusive, true, nil}})
		if err := db.Update(0, id, rid, []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	update(rids[0], 10)
	update(rids[1], 11)
	// Same node, same log: the bystander's records land between id's.
	runLockSteps(t, db, []lockStep{{bystander, lock.NameOfRID(other[0]), lock.Exclusive, true, nil}})
	if err := db.Update(0, bystander, other[0], []byte{99}); err != nil {
		t.Fatal(err)
	}
	nta, err := db.BeginNTA(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StructuralUpdate(0, id, structural, heap.FlagOccupied, []byte{7}, nta); err != nil {
		t.Fatal(err)
	}
	if err := db.EndNTA(0, id, nta); err != nil {
		t.Fatal(err)
	}
	update(rids[2], 12)
	update(rids[0], 13) // a second update of the first slot
	const k = 4

	// The chain: id's undoable updates, newest to oldest, and nothing else.
	var chain []wal.LSN
	prev := wal.LSN(0)
	for _, rec := range db.Logs[0].Records(1) {
		undoable := rec.Txn == id && rec.Type == wal.TypeUpdate && rec.NTA == 0
		switch {
		case undoable && rec.PrevLSN != prev:
			t.Errorf("update at LSN %d names LSN %d as the one before it, want %d", rec.LSN, rec.PrevLSN, prev)
		case rec.Txn == id && rec.Type != wal.TypeUpdate && rec.PrevLSN != 0:
			t.Errorf("%v record at LSN %d is on a chain (PrevLSN %d)", rec.Type, rec.LSN, rec.PrevLSN)
		}
		if undoable {
			prev = rec.LSN
			chain = append(chain, rec.LSN)
		}
	}
	if len(chain) != k {
		t.Fatalf("%d undoable updates logged, want %d", len(chain), k)
	}

	logged := db.Logs[0].Len()
	if err := db.Abort(0, id); err != nil {
		t.Fatal(err)
	}
	clrs := 0
	for _, rec := range db.Logs[0].Records(wal.LSN(logged + 1)) {
		if rec.Type == wal.TypeCLR {
			clrs++
		}
	}
	if clrs != 3 {
		t.Errorf("Abort wrote %d compensation records, want 3 (one per slot)", clrs)
	}
	for s, rid := range rids[:3] {
		if sd, err := db.Read(0, rid); err != nil || !bytes.HasPrefix(sd.Data, []byte{1, byte(s)}) {
			t.Errorf("%v after Abort = %v, %v; want the seeded value", rid, sd.Data, err)
		}
	}
	if sd, err := db.Read(0, structural); err != nil || sd.Data[0] != 7 {
		t.Errorf("structural update undone by Abort: %v, %v", sd.Data, err)
	}
	if sd, err := db.Read(0, other[0]); err != nil || sd.Data[0] != 99 {
		t.Errorf("the bystander's update was touched: %v, %v", sd.Data, err)
	}
}

// TestCheckpointKeepsALiveTransactionsRecords: a checkpoint taken while a
// transaction is live discards nothing from where the log stood at its Begin
// on, so its first record survives and it can still roll back; once it has
// ended, the next checkpoint reclaims the space.
func TestCheckpointKeepsALiveTransactionsRecords(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	rids := seedLine(t, db, 0, 1)
	seedLine(t, db, 0, 2) // records below the live transaction's

	id := mustBegin(t, db, 0)
	first := db.Logs[0].NextLSN()
	if err := db.Update(0, id, rids[0], []byte{42}); err != nil {
		t.Fatal(err)
	}
	seedLine(t, db, 0, 3) // committed work above it
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if got := db.Logs[0].FirstLSN(); got != first {
		t.Errorf("checkpoint with %v live retains the log from LSN %d, want %d (its first record)", id, got, first)
	}
	if rec, ok := db.Logs[0].Get(first); !ok || rec.Txn != id || rec.Type != wal.TypeUpdate {
		t.Fatalf("the live transaction's first record after the checkpoint: %+v, %v", rec, ok)
	}
	if err := db.Abort(0, id); err != nil {
		t.Fatal(err)
	}
	if sd, err := db.Read(0, rids[0]); err != nil || !bytes.HasPrefix(sd.Data, []byte{1, 0}) {
		t.Errorf("%v after the post-checkpoint Abort = %v, %v; want the seeded value", rids[0], sd.Data, err)
	}
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if got, ckpt := db.Logs[0].FirstLSN(), db.Logs[0].LastCheckpoint(); got != ckpt {
		t.Errorf("checkpoint with nothing live retains the log from LSN %d, want its own record %d", got, ckpt)
	}
}
