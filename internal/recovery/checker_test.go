package recovery

import (
	"fmt"
	"strings"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/wal"
)

// The checker works out what each slot must hold from the logs, the stable
// database and the transactions' own state. These tests change the database
// behind the engine's back — a slot, a tag, an LCB — and expect the checker
// to name the damage, and on the untouched control to find nothing.

// checkerTxn runs an update of each rid (an insert if insert) in one
// transaction on node nd, locking as the transaction layer would, and
// commits it unless leaveOpen.
func checkerTxn(t *testing.T, db *DB, nd machine.NodeID, rids []heap.RID, val byte, insert, leaveOpen bool) wal.TxnID {
	t.Helper()
	id, err := db.Begin(nd)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		if ok, err := db.Lock(id, lock.NameOfRID(rid), lock.Exclusive); err != nil || !ok {
			t.Fatalf("lock %v: granted=%v, %v", rid, ok, err)
		}
		data := []byte{val, byte(rid.Page), byte(rid.Slot)}
		if insert {
			err = db.Insert(nd, id, rid, data)
		} else {
			err = db.Update(nd, id, rid, data)
		}
		if err != nil {
			t.Fatalf("write %v: %v", rid, err)
		}
	}
	if !leaveOpen {
		if err := db.Commit(nd, id); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

// overwrite stores val in rid from node 0 with no log record, keeping the
// slot's version, and sets its undo tag to tag.
func overwrite(t *testing.T, db *DB, rid heap.RID, val byte, tag machine.NodeID) {
	t.Helper()
	cur, err := db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, 0, line); err != nil {
		t.Fatal(err)
	}
	var buf heap.SlotBuf
	werr := db.Store.WriteSlotIn(&sec, rid, heap.SlotData{Tag: tag, Flags: cur.Flags, Version: cur.Version,
		Data: []byte{val, byte(rid.Page), byte(rid.Slot)}}, &buf)
	if err := sec.Leave(); err != nil || werr != nil {
		t.Fatal(werr, err)
	}
}

// checkerScene is the state every detection case starts from, after node 1
// crashed and recovery ran: committed and undone were seeded and updated
// after the checkpoint, survivor's active transaction on node 0 has updated
// kept, and crashedWriter's update of undone, stolen to disk before the
// crash, has been rolled back (AblatedNoLBM could not, so there it never
// runs).
type checkerScene struct {
	db                      *DB
	committed, kept, undone heap.RID
	survivor, crashedWriter wal.TxnID
}

func newCheckerScene(t *testing.T, proto Protocol) *checkerScene {
	t.Helper()
	db := newNodeTestDB(t, proto, 3)
	sc := &checkerScene{db: db, committed: heap.RID{Page: 1, Slot: 0}, kept: heap.RID{Page: 1, Slot: 1}, undone: heap.RID{Page: 2, Slot: 0}}
	checkerTxn(t, db, 0, []heap.RID{sc.committed, sc.kept, sc.undone}, 1, true, false)
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	checkerTxn(t, db, 2, []heap.RID{sc.committed, sc.undone}, 2, false, false)
	sc.survivor = checkerTxn(t, db, 0, []heap.RID{sc.kept}, 3, false, true)
	if proto != AblatedNoLBM {
		sc.crashedWriter = checkerTxn(t, db, 1, []heap.RID{sc.undone}, 4, false, true)
		if err := db.BM.FlushPage(1, sc.undone.Page); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCheckerDetectsEachViolationClass: each case damages one thing and
// expects exactly the class of violation that damage is.
func TestCheckerDetectsEachViolationClass(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		proto      Protocol
		damage     func(t *testing.T, sc *checkerScene)
	}{
		{"clean", "", VolatileSelectiveRedo, func(*testing.T, *checkerScene) {}},
		{"committed value lost", "r1.0: committed value lost", VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			overwrite(t, sc.db, sc.committed, 9, machine.NoNode)
		}},
		{"crashed effect not undone", "r2.0: crashed transaction t1.1's effect not undone", VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			overwrite(t, sc.db, sc.undone, 4, machine.NoNode)
		}},
		{"survivor update lost", "r1.1: surviving transaction t0.2's update lost", VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			overwrite(t, sc.db, sc.kept, 1, 0)
		}},
		{"wrong undo tag", "r1.0: undo tag = 2, want -1 (committed)", VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			overwrite(t, sc.db, sc.committed, 2, 2)
		}},
		{"survivor lock lost", fmt.Sprintf("lock %v of surviving t0.2 lost from lock space", lock.NameOfRID(heap.RID{Page: 1, Slot: 1})), VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			if err := sc.db.Locks.Release(0, sc.survivor, lock.NameOfRID(sc.kept)); err != nil {
				t.Fatal(err)
			}
		}},
		{"crashed still in LCBs", "crashed t1.1 still appears in 1 LCBs", VolatileSelectiveRedo, func(t *testing.T, sc *checkerScene) {
			if _, err := sc.db.Locks.Acquire(0, sc.crashedWriter, lock.NameOfRID(sc.committed), lock.Shared); err != nil {
				t.Fatal(err)
			}
		}},
		{"ablated clean", "", AblatedNoLBM, func(*testing.T, *checkerScene) {}},
		{"ablated survivor update lost", "r1.1: surviving transaction t0.2's update lost", AblatedNoLBM, func(t *testing.T, sc *checkerScene) {
			overwrite(t, sc.db, sc.kept, 1, machine.NoNode)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newCheckerScene(t, tc.proto)
			tc.damage(t, sc)
			v := sc.db.CheckIFA(0)
			if tc.want == "" {
				if len(v) != 0 {
					t.Errorf("the undamaged database has violations: %q", v)
				}
				return
			}
			if len(v) != 1 || !strings.HasPrefix(v[0], tc.want) {
				t.Errorf("violations = %q, want one starting %q", v, tc.want)
			}
		})
	}
}

// TestCheckerAcrossCheckpoint: once a checkpoint has discarded the records
// of committed work, the stable database is what says what is committed.
// Nothing is lost until a slot changes with no record behind it.
func TestCheckerAcrossCheckpoint(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	a, b := heap.RID{Page: 1, Slot: 0}, heap.RID{Page: 1, Slot: 1}
	checkerTxn(t, db, 0, []heap.RID{a, b}, 1, true, false)
	checkerTxn(t, db, 0, []heap.RID{a}, 2, false, false)
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	db.Logs[0].Each(1, func(r *wal.Record) bool {
		if r.Type == wal.TypeUpdate {
			t.Fatalf("the checkpoint kept update record %d", r.LSN)
		}
		return true
	})
	if v := db.CheckIFA(0); len(v) != 0 {
		t.Errorf("CheckIFA after the checkpoint: %q", v)
	}
	if v := db.VerifyCommittedDurability(0); len(v) != 0 {
		t.Errorf("VerifyCommittedDurability after the checkpoint: %q", v)
	}
	overwrite(t, db, b, 7, machine.NoNode)
	if v := db.CheckIFA(0); len(v) != 1 || !strings.HasPrefix(v[0], "r1.1: committed value lost") {
		t.Errorf("CheckIFA of a slot changed with no record = %q, want r1.1's committed value lost", v)
	}
	if v := db.VerifyCommittedDurability(0); len(v) != 1 || v[0] != "r1.1: committed image mismatch" {
		t.Errorf("VerifyCommittedDurability = %q, want r1.1's committed image mismatch", v)
	}
}

// TestCheckerStableSlotNewerThanRetainedRecord: node 1's open transaction
// keeps node 1's log from its first record on, so a checkpoint keeps node 1's
// committed update of the slot but discards node 0's newer one. The stable
// slot, which the checkpoint flushed, is the newer committed image.
func TestCheckerStableSlotNewerThanRetainedRecord(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	a, pin := heap.RID{Page: 1, Slot: 0}, heap.RID{Page: 2, Slot: 0}
	checkerTxn(t, db, 0, []heap.RID{a, pin}, 1, true, false)
	checkerTxn(t, db, 1, []heap.RID{pin}, 2, false, true)
	checkerTxn(t, db, 1, []heap.RID{a}, 3, false, false)
	checkerTxn(t, db, 0, []heap.RID{a}, 4, false, false)
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if v := db.VerifyCommittedDurability(0); len(v) != 0 {
		t.Errorf("VerifyCommittedDurability: %q", v)
	}
	if v := db.CheckIFA(0); len(v) != 0 {
		t.Errorf("CheckIFA: %q", v)
	}
}

// TestCheckerCommittedUpdates: which update records rule 1 counts as
// committed. A parallel branch whose sibling failed is rolled back after its
// commit record was written, so an abort record overrules a commit record;
// a structural update stays in place from the moment it is made unless
// restart recovery undoes its crashed transaction's unfinished NTA, so it
// counts while its transaction lives, NTA ended or not.
func TestCheckerCommittedUpdates(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	a, s := heap.RID{Page: 1, Slot: 0}, heap.RID{Page: 1, Slot: 1}
	checkerTxn(t, db, 0, []heap.RID{a, s}, 1, true, false)
	branch := checkerTxn(t, db, 0, []heap.RID{a}, 2, false, true)
	db.Logs[0].Append(wal.Record{Type: wal.TypeCommit, Txn: branch})
	if err := db.Abort(0, branch); err != nil {
		t.Fatal(err)
	}
	id, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	nta, err := db.BeginNTA(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StructuralUpdate(0, id, s, heap.FlagOccupied, []byte{5}, nta); err != nil {
		t.Fatal(err)
	}
	if v := db.CheckIFA(0); len(v) != 0 {
		t.Errorf("CheckIFA with an NTA open: %q", v)
	}
	if err := db.Abort(0, id); err != nil {
		t.Fatal(err)
	}
	if v := db.CheckIFA(0); len(v) != 0 {
		t.Errorf("CheckIFA: %q", v)
	}
}
