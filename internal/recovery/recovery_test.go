package recovery_test

import (
	"errors"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// ifaProtocols are the protocols that must guarantee IFA.
var ifaProtocols = []recovery.Protocol{
	recovery.VolatileRedoAll,
	recovery.VolatileSelectiveRedo,
	recovery.StableEager,
	recovery.StableTriggered,
}

func newDB(t *testing.T, proto recovery.Protocol, nodes int) (*recovery.DB, *txn.Manager) {
	t.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: 2048},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          16,
		LockTableLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, txn.NewManager(db)
}

// seed commits initial values into the given rids from node 0 and
// checkpoints, so every record has a last committed image on stable store.
func seed(t *testing.T, mgr *txn.Manager, rids []heap.RID, val byte) {
	t.Helper()
	tx, err := mgr.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		if err := tx.Insert(rid, []byte{val, byte(rid.Page), byte(rid.Slot)}); err != nil {
			t.Fatalf("seed insert %v: %v", rid, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.DB.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
}

func mustCheckIFA(t *testing.T, db *recovery.DB, nd machine.NodeID) {
	t.Helper()
	if v := db.CheckIFA(nd); len(v) != 0 {
		for _, s := range v {
			t.Errorf("IFA violation: %s", s)
		}
	}
}

// TestFigure2CrashOfTxnNode reproduces figure 2, crash case 1: records r1
// and r2 share a cache line; t_x (node 0) updates r1, t_y (node 1) updates
// r2, migrating the line to node 1; node 0 crashes. IFA requires t_x's
// update to be undone (even though it lives on in node 1's cache) and t_y's
// update to be preserved.
func TestFigure2CrashOfTxnNode(t *testing.T) {
	r1 := heap.RID{Page: 0, Slot: 0}
	r2 := heap.RID{Page: 0, Slot: 1}
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{r1, r2}, 1)

			tx, err := mgr.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			ty, err := mgr.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(r1, []byte{100}); err != nil {
				t.Fatal(err)
			}
			if err := ty.Write(r2, []byte{200}); err != nil {
				t.Fatal(err)
			}
			// The line now lives only on node 1 (H_ww1 migration).
			line, _, _ := db.Store.LineOf(r1)
			if got := db.M.ExclusiveHolder(line); got != 1 {
				t.Fatalf("line holder = %d, want 1 (migrated)", got)
			}

			db.Crash(0)
			rep, err := db.Recover([]machine.NodeID{0})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Aborted) != 1 || rep.Aborted[0] != tx.ID() {
				t.Errorf("Aborted = %v, want [%v]", rep.Aborted, tx.ID())
			}
			// t_x's uncommitted update must be gone; the seeded value back.
			got, err := db.Read(1, r1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data[0] != 1 {
				t.Errorf("r1 = %d, want 1 (t_x undone)", got.Data[0])
			}
			// t_y's update must be intact (no unnecessary abort).
			if st, _ := db.Status(ty.ID()); st != recovery.TxnActive {
				t.Errorf("t_y status = %v, want active", st)
			}
			got2, err := db.Read(1, r2)
			if err != nil {
				t.Fatal(err)
			}
			if got2.Data[0] != 200 {
				t.Errorf("r2 = %d, want 200 (t_y preserved)", got2.Data[0])
			}
			mustCheckIFA(t, db, 1)
			// And t_y can still commit afterwards.
			if err := ty.Commit(); err != nil {
				t.Fatalf("t_y commit after recovery: %v", err)
			}
		})
	}
}

// TestFigure2CrashOfRemoteNode is figure 2, crash case 2: the line holding
// t_x's update migrated to node 1 and node 1 crashes, destroying it. IFA
// requires t_x's update to be redone so t_x (on the surviving node 0) loses
// nothing.
func TestFigure2CrashOfRemoteNode(t *testing.T) {
	r1 := heap.RID{Page: 0, Slot: 0}
	r2 := heap.RID{Page: 0, Slot: 1}
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{r1, r2}, 1)

			tx, err := mgr.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			ty, err := mgr.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(r1, []byte{100}); err != nil {
				t.Fatal(err)
			}
			if err := ty.Write(r2, []byte{200}); err != nil {
				t.Fatal(err)
			}
			db.Crash(1)
			rep, err := db.Recover([]machine.NodeID{1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Aborted) != 1 || rep.Aborted[0] != ty.ID() {
				t.Errorf("Aborted = %v, want [%v]", rep.Aborted, ty.ID())
			}
			// t_x's update must have been redone from node 0's log.
			got, err := db.Read(0, r1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data[0] != 100 {
				t.Errorf("r1 = %d, want 100 (t_x's update redone)", got.Data[0])
			}
			// t_y's update must be gone (its node crashed).
			got2, err := db.Read(0, r2)
			if err != nil {
				t.Fatal(err)
			}
			if got2.Data[0] != 1 {
				t.Errorf("r2 = %d, want 1 (t_y undone)", got2.Data[0])
			}
			mustCheckIFA(t, db, 0)
			if err := tx.Commit(); err != nil {
				t.Fatalf("t_x commit after recovery: %v", err)
			}
		})
	}
}

// TestBaselineRebootsEverything: under the conventional protocol, any node
// crash aborts every active transaction in the system — including ones on
// nodes that did not fail — while committed work survives.
func TestBaselineRebootsEverything(t *testing.T) {
	r1 := heap.RID{Page: 0, Slot: 0}
	r2 := heap.RID{Page: 1, Slot: 0} // different page: no physical sharing at all
	db, mgr := newDB(t, recovery.BaselineFA, 2)
	seed(t, mgr, []heap.RID{r1, r2}, 1)

	tx, _ := mgr.Begin(0)
	ty, _ := mgr.Begin(1)
	if err := tx.Write(r1, []byte{100}); err != nil {
		t.Fatal(err)
	}
	if err := ty.Write(r2, []byte{200}); err != nil {
		t.Fatal(err)
	}
	db.Crash(0)
	rep, err := db.Recover([]machine.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aborted) != 2 {
		t.Errorf("baseline aborted %d transactions, want 2 (everything)", len(rep.Aborted))
	}
	if st, _ := db.Status(ty.ID()); st != recovery.TxnAborted {
		t.Errorf("t_y status = %v, want aborted (unnecessary abort is the baseline's defect)", st)
	}
	for _, rid := range []heap.RID{r1, r2} {
		got, err := db.Read(0, rid)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data[0] != 1 {
			t.Errorf("%v = %d, want seeded 1", rid, got.Data[0])
		}
	}
}

// TestCommittedWorkSurvivesAnyCrash: committed transactions are durable
// under every protocol even when every node crashes.
func TestCommittedWorkSurvivesAnyCrash(t *testing.T) {
	rid := heap.RID{Page: 2, Slot: 3}
	for _, proto := range recovery.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{rid}, 1)
			tx, _ := mgr.Begin(1)
			if err := tx.Write(rid, []byte{77}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Crash the committing node before its page was ever flushed:
			// redo from its stable log (forced at commit) must restore it.
			db.Crash(1)
			if _, err := db.Recover([]machine.NodeID{1}); err != nil {
				t.Fatal(err)
			}
			got, err := db.Read(0, rid)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data[0] != 77 {
				t.Errorf("committed value = %d, want 77", got.Data[0])
			}
		})
	}
}

// TestStealThenCrash: an uncommitted update stolen to disk is undone from
// the stable log (the WAL rule guarantees its undo record was forced first).
func TestStealThenCrash(t *testing.T) {
	rid := heap.RID{Page: 0, Slot: 0}
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{rid}, 9)
			tx, _ := mgr.Begin(0)
			if err := tx.Write(rid, []byte{66}); err != nil {
				t.Fatal(err)
			}
			// Steal: flush the page carrying the uncommitted update.
			if err := db.BM.FlushPage(0, rid.Page); err != nil {
				t.Fatal(err)
			}
			if db.Logs[0].ForcedLSN() == 0 {
				t.Fatal("WAL rule did not force the updater's log")
			}
			db.Crash(0)
			if _, err := db.Recover([]machine.NodeID{0}); err != nil {
				t.Fatal(err)
			}
			got, err := db.Read(1, rid)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data[0] != 9 {
				t.Errorf("stolen update not undone: %d, want 9", got.Data[0])
			}
			mustCheckIFA(t, db, 1)
		})
	}
}

// TestAbortRestoresBeforeImages: a plain abort (no crash) reinstalls every
// before image and clears undo tags.
func TestAbortRestoresBeforeImages(t *testing.T) {
	rids := []heap.RID{{Page: 0, Slot: 0}, {Page: 1, Slot: 5}}
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
	seed(t, mgr, rids, 3)
	tx, _ := mgr.Begin(1)
	for _, rid := range rids {
		if err := tx.Write(rid, []byte{111}); err != nil {
			t.Fatal(err)
		}
	}
	// Multiple updates to the same record: undo walks back to the first.
	if err := tx.Write(rids[0], []byte{112}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		sd, err := db.Read(0, rid)
		if err != nil {
			t.Fatal(err)
		}
		if sd.Data[0] != 3 {
			t.Errorf("%v = %d after abort, want 3", rid, sd.Data[0])
		}
		if sd.Tag != machine.NoNode {
			t.Errorf("%v tag = %d after abort, want none", rid, sd.Tag)
		}
	}
	mustCheckIFA(t, db, 0)
}

// TestDeleteUndoIsUnmark: an uncommitted logical delete is undone by
// unmarking; the record bytes were never destroyed (section 4.2.1).
func TestDeleteUndoIsUnmark(t *testing.T) {
	rid := heap.RID{Page: 0, Slot: 2}
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
	seed(t, mgr, []heap.RID{rid}, 5)
	tx, _ := mgr.Begin(1)
	if err := tx.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(rid); !errors.Is(err, txn.ErrNotFound) {
		t.Errorf("read of deleted record: err = %v, want ErrNotFound", err)
	}
	// Crash the deleter: the delete must be undone on the survivor.
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(0, rid)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Occupied() || sd.Deleted() {
		t.Errorf("delete not undone: flags = %#x", sd.Flags)
	}
	if sd.Data[0] != 5 {
		t.Errorf("record bytes lost in delete undo: %d", sd.Data[0])
	}
	mustCheckIFA(t, db, 0)
}

// TestCommitClearsTags: after commit, no undo tag remains (the record is no
// longer active).
func TestCommitClearsTags(t *testing.T) {
	rid := heap.RID{Page: 0, Slot: 1}
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
	seed(t, mgr, []heap.RID{rid}, 2)
	tx, _ := mgr.Begin(0)
	if err := tx.Write(rid, []byte{10}); err != nil {
		t.Fatal(err)
	}
	sd, _ := db.Read(0, rid)
	if sd.Tag != 0 {
		t.Fatalf("active record tag = %d, want 0", sd.Tag)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sd, _ = db.Read(0, rid)
	if sd.Tag != machine.NoNode {
		t.Errorf("tag after commit = %d, want none", sd.Tag)
	}
	st := db.Stats()
	if st.TagWrites == 0 || st.TagClears == 0 {
		t.Errorf("tag accounting: %+v", st)
	}
}

// TestLockSpaceAcrossCrash: shared locks of a surviving transaction stored
// in an LCB that dies with another node are rebuilt from the read-lock log;
// the crashed transaction's locks are released.
func TestLockSpaceAcrossCrash(t *testing.T) {
	rid := heap.RID{Page: 3, Slot: 0}
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{rid}, 1)
			tx, _ := mgr.Begin(0)
			ty, _ := mgr.Begin(1)
			// Both read-lock the same record; node 1 acquires last, so the
			// LCB line is valid only there (the section 3.1 example).
			if _, err := tx.Read(rid); err != nil {
				t.Fatal(err)
			}
			if _, err := ty.Read(rid); err != nil {
				t.Fatal(err)
			}
			db.Crash(1)
			rep, err := db.Recover([]machine.NodeID{1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.LocksReplayed == 0 {
				t.Error("no lock replay happened")
			}
			mustCheckIFA(t, db, 0)
			// The surviving transaction can upgrade and write: the dead
			// transaction's share lock is gone.
			if err := txn.Retry(func() error { return tx.Write(rid, []byte{50}) }); err != nil {
				t.Fatalf("survivor blocked by dead transaction's lock: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCanceledWaitNotResurrected: a queued lock request that was withdrawn
// with WithdrawWait before a crash must not come back as a grant after
// recovery. The acquire is logged before the grant decision, so the lock
// log alone over-approximates what was held; a replay that trusted it
// would re-grant the lock to a transaction that never knew it held it —
// nothing would ever release it, and every later waiter would wedge with
// no waits-for cycle to break.
func TestCanceledWaitNotResurrected(t *testing.T) {
	rid := heap.RID{Page: 3, Slot: 1}
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 2)
			seed(t, mgr, []heap.RID{rid}, 1)
			tx, _ := mgr.Begin(0)
			ty, _ := mgr.Begin(1)
			if err := tx.Write(rid, []byte{7}); err != nil {
				t.Fatal(err)
			}
			name := lock.NameOfRID(rid)
			// ty queues behind tx's exclusive lock, then gives up the wait
			// (the deadlock-victim path) without aborting.
			granted, err := db.Locks.Acquire(1, ty.ID(), name, lock.Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			if granted {
				t.Fatal("conflicting acquire granted immediately")
			}
			if _, err := db.Locks.WithdrawWait(1, ty.ID(), name); err != nil {
				t.Fatal(err)
			}
			db.Crash(0)
			if _, err := db.Recover([]machine.NodeID{0}); err != nil {
				t.Fatal(err)
			}
			if _, held, err := db.Locks.Holds(1, ty.ID(), name); err != nil {
				t.Fatal(err)
			} else if held {
				t.Fatal("canceled wait resurrected as a grant by lock replay")
			}
			snap, err := db.Locks.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, ls := range snap {
				if ls.Name != name {
					continue
				}
				for _, e := range append(ls.Holders, ls.Waiters...) {
					if e.Txn == ty.ID() {
						t.Fatalf("withdrawn request survives in lock space: %+v", ls)
					}
				}
			}
			mustCheckIFA(t, db, 1)
			if err := ty.Commit(); err != nil {
				t.Fatal(err)
			}
			// The record must be freely lockable afterwards — a leaked entry
			// here is exactly the chaos-suite wedge.
			tz, _ := mgr.Begin(1)
			if err := txn.Retry(func() error { return tz.Write(rid, []byte{9}) }); err != nil {
				t.Fatalf("record wedged after recovery: %v", err)
			}
			if err := tz.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNTASurvivesAbort: structural changes (nested top-level actions) are
// committed early and survive the enclosing transaction's abort — and a
// crash of the enclosing transaction's node.
func TestNTASurvivesAbort(t *testing.T) {
	structural := heap.RID{Page: 4, Slot: 0}
	normal := heap.RID{Page: 4, Slot: 1}
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
	seed(t, mgr, []heap.RID{normal}, 1)

	tx, _ := mgr.Begin(0)
	nta, err := db.BeginNTA(0, tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StructuralUpdate(0, tx.ID(), structural, heap.FlagOccupied, []byte{88}, nta); err != nil {
		t.Fatal(err)
	}
	if err := db.EndNTA(0, tx.ID(), nta); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(normal, []byte{99}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(1, structural)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Occupied() || sd.Data[0] != 88 {
		t.Errorf("structural change undone by abort: %+v", sd)
	}
	sd, _ = db.Read(1, normal)
	if sd.Data[0] != 1 {
		t.Errorf("normal update not undone: %d", sd.Data[0])
	}
	if db.Stats().NTAForces == 0 {
		t.Error("structural change was not committed early (no NTA force)")
	}

	// Crash-variant: structural change by a transaction whose node dies.
	ty, _ := mgr.Begin(1)
	nta2, err := db.BeginNTA(1, ty.ID())
	if err != nil {
		t.Fatal(err)
	}
	structural2 := heap.RID{Page: 5, Slot: 0}
	if err := db.StructuralUpdate(1, ty.ID(), structural2, heap.FlagOccupied, []byte{89}, nta2); err != nil {
		t.Fatal(err)
	}
	if err := db.EndNTA(1, ty.ID(), nta2); err != nil {
		t.Fatal(err)
	}
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	sd, err = db.Read(0, structural2)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Occupied() || sd.Data[0] != 89 {
		t.Errorf("early-committed structural change lost in crash: %+v", sd)
	}
}

// TestDirtyReadReplication: with dirty reads (browse), H_wr replication
// spreads an uncommitted update to a reader's node even with one record per
// line; Selective Redo's tag scan still undoes it there when the updater
// crashes.
func TestDirtyReadReplication(t *testing.T) {
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: 2, Lines: 2048},
		Protocol:       recovery.VolatileSelectiveRedo,
		LinesPerPage:   4,
		RecsPerLine:    1, // one object per cache line
		Pages:          8,
		LockTableLines: 64,
		DirtyReads:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(db)
	rid := heap.RID{Page: 0, Slot: 0}
	seed(t, mgr, []heap.RID{rid}, 7)

	tx, _ := mgr.Begin(0)
	if err := tx.Write(rid, []byte{42}); err != nil {
		t.Fatal(err)
	}
	ty, _ := mgr.Begin(1)
	dirty, err := ty.ReadDirty(rid)
	if err != nil {
		t.Fatal(err)
	}
	if dirty[0] != 42 {
		t.Fatalf("dirty read = %d, want 42", dirty[0])
	}
	// The line is now replicated on node 1. Crash the updater: the
	// surviving copy carries t_x's tag and must be reverted.
	db.Crash(0)
	if _, err := db.Recover([]machine.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	sd, err := db.Read(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Data[0] != 7 {
		t.Errorf("dirty-replicated update not undone: %d, want 7", sd.Data[0])
	}
	mustCheckIFA(t, db, 1)
}

// TestCheckpointBoundsRedo: redo work is bounded by the last checkpoint.
func TestCheckpointBoundsRedo(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileRedoAll, 2)
	rids := []heap.RID{{Page: 0, Slot: 0}, {Page: 1, Slot: 0}, {Page: 2, Slot: 0}}
	seed(t, mgr, rids, 1)
	// Pre-checkpoint committed work.
	tx, _ := mgr.Begin(0)
	for _, rid := range rids {
		if err := tx.Write(rid, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint: one more committed update.
	ty, _ := mgr.Begin(0)
	if err := ty.Write(rids[0], []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash(1) // crash a bystander; node 0 survives
	rep, err := db.Recover([]machine.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.RedoApplied + rep.RedoSkipped
	if total > 2 { // the post-ckpt update (+ possibly its page header sibling)
		t.Errorf("redo examined %d records, want <= 2 (checkpoint should bound the scan)", total)
	}
	got, _ := db.Read(0, rids[0])
	if got.Data[0] != 3 {
		t.Errorf("post-checkpoint committed value = %d, want 3", got.Data[0])
	}
}

// TestRedoAllDoesMoreWork: on the same scenario, Redo All performs at least
// as many redo applications as Selective Redo (it discards every cache).
func TestRedoAllDoesMoreWork(t *testing.T) {
	run := func(proto recovery.Protocol) int {
		db, mgr := newDB(t, proto, 3)
		rids := make([]heap.RID, 8)
		for i := range rids {
			rids[i] = heap.RID{Page: 0, Slot: uint16(i)}
		}
		seed(t, mgr, rids, 1)
		// Survivor node 1 commits updates after the checkpoint; they stay
		// cached (not flushed).
		tx, _ := mgr.Begin(1)
		for _, rid := range rids {
			if err := tx.Write(rid, []byte{9}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		db.Crash(2) // bystander crash; node 1's cached pages survive
		rep, err := db.Recover([]machine.NodeID{2})
		if err != nil {
			t.Fatal(err)
		}
		return rep.RedoApplied
	}
	redoAll := run(recovery.VolatileRedoAll)
	selective := run(recovery.VolatileSelectiveRedo)
	if redoAll <= selective {
		t.Errorf("RedoApplied: redo-all = %d, selective = %d; want redo-all > selective", redoAll, selective)
	}
	if selective != 0 {
		t.Errorf("selective redo applied %d records for a crash that lost nothing, want 0", selective)
	}
}

// TestMultiNodeCrash: IFA holds when several nodes crash at once.
func TestMultiNodeCrash(t *testing.T) {
	for _, proto := range ifaProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			db, mgr := newDB(t, proto, 4)
			rids := make([]heap.RID, 8)
			for i := range rids {
				rids[i] = heap.RID{Page: storage.PageID(i / 4), Slot: uint16(i % 4)}
			}
			seed(t, mgr, rids, 1)
			var txns [4]*txn.Txn
			for n := 0; n < 4; n++ {
				txns[n], _ = mgr.Begin(machine.NodeID(n))
				if err := txns[n].Write(rids[n*2], []byte{byte(100 + n)}); err != nil {
					t.Fatal(err)
				}
			}
			db.Crash(1, 3)
			rep, err := db.Recover([]machine.NodeID{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Aborted) != 2 {
				t.Errorf("aborted %v, want the two crashed transactions", rep.Aborted)
			}
			mustCheckIFA(t, db, 0)
			// Survivors commit.
			if err := txns[0].Commit(); err != nil {
				t.Fatal(err)
			}
			if err := txns[2].Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChainedLCBRecovery runs the lock-space crash scenario with multi-line
// (chained) LCBs: a crash that destroys chain fragments drops the whole
// LCB, and recovery rebuilds it from the read-lock logs — IFA still holds.
func TestChainedLCBRecovery(t *testing.T) {
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: 4, Lines: 2048},
		Protocol:       recovery.VolatileSelectiveRedo,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          16,
		LockTableLines: 64,
		ChainedLCBs:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(db)
	rid := heap.RID{Page: 0, Slot: 0}
	seed(t, mgr, []heap.RID{rid}, 1)

	// Many transactions per node share read locks on one record: the LCB
	// overflows into chained lines. (The one-line organization would
	// reject this with ErrLCBFull.)
	var txns []*txn.Txn
	for n := 0; n < 4; n++ {
		for k := 0; k < 4; k++ {
			tx, err := mgr.Begin(machine.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Read(rid); err != nil {
				t.Fatal(err)
			}
			txns = append(txns, tx)
		}
	}
	snap, err := db.Locks.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0].Holders) != 16 {
		t.Fatalf("expected one chained LCB with 16 holders, got %+v", snap)
	}
	// The snapshot replicated the chain's lines to node 0; one more
	// acquisition from node 3 rewrites the whole chain, invalidating the
	// replicas, so the chain again lives only on the node about to die.
	extra, err := mgr.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extra.Read(rid); err != nil {
		t.Fatal(err)
	}
	txns = append(txns, extra)

	db.Crash(3)
	rep, err := db.Recover([]machine.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LCBChainsDropped == 0 && rep.LCBsReinstalled == 0 {
		t.Error("crash did not touch the chained lock space (scenario too weak)")
	}
	mustCheckIFA(t, db, 0)
	// Survivors' 12 read locks are all back; the crashed node's 4 are gone.
	snap, err = db.Locks.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0].Holders) != 12 {
		t.Fatalf("after recovery: %+v, want 12 holders", snap)
	}
	for _, tx := range txns {
		if tx.Node() != 3 {
			if err := tx.Commit(); err != nil {
				t.Fatalf("survivor commit: %v", err)
			}
		}
	}
}

// TestReadByNodeOutsideMachine: a read on behalf of a node the machine does
// not have fails as a read by a down node does, not with a panic in the
// page fetch.
func TestReadByNodeOutsideMachine(t *testing.T) {
	db, _ := newDB(t, recovery.VolatileSelectiveRedo, 2)
	for _, nd := range []machine.NodeID{5, machine.NoNode} {
		if _, err := db.Read(nd, heap.RID{Page: 1, Slot: 0}); !errors.Is(err, machine.ErrNodeDown) {
			t.Errorf("Read by node %d of a two-node DB: %v, want ErrNodeDown", nd, err)
		}
	}
}
