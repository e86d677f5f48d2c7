package txn_test

import (
	"errors"
	"slices"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

func newDirtyMgr(t *testing.T) *txn.Manager {
	t.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: 2, Lines: 2048},
		Protocol:       recovery.VolatileSelectiveRedo,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          8,
		LockTableLines: 128,
		DirtyReads:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(db)
}

func TestParallelWrapper(t *testing.T) {
	mgr := newMgr(t, 3)
	rids := []heap.RID{{Page: 0, Slot: 0}, {Page: 1, Slot: 0}}
	for _, rid := range rids {
		seedOne(t, mgr, rid, 1)
	}
	p, err := mgr.BeginParallel(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Global() == 0 {
		t.Error("zero global id")
	}
	if p.On(1) != nil {
		t.Error("branch on non-participating node")
	}
	if got := p.Nodes(); !slices.Equal(got, []machine.NodeID{0, 2}) {
		t.Errorf("Nodes = %v, want [0 2] whatever order the branches began in", got)
	}
	if err := p.On(0).Write(rids[0], []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := p.On(2).Write(rids[1], []byte{8}); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); !errors.Is(err, txn.ErrDone) {
		t.Errorf("double commit: %v", err)
	}
	check, _ := mgr.Begin(1)
	if v, err := check.Read(rids[0]); err != nil || v[0] != 9 {
		t.Errorf("branch write = %v, %v", v, err)
	}
}

func TestParallelWrapperAbort(t *testing.T) {
	mgr := newMgr(t, 2)
	rid := heap.RID{Page: 0, Slot: 0}
	seedOne(t, mgr, rid, 1)
	p, err := mgr.BeginParallel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.On(1).Write(rid, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(); !errors.Is(err, txn.ErrDone) {
		t.Errorf("double abort: %v", err)
	}
	check, _ := mgr.Begin(0)
	if v, err := check.Read(rid); err != nil || v[0] != 1 {
		t.Errorf("abort not applied: %v, %v", v, err)
	}
}

// TestParallelEndReleasesInNodeOrder: the branches share one lock (every
// branch reads the same record), so the order they release it in decides
// which node finds the LCB line local and which must migrate it — and with it
// every node's simulated clock. Released in node order, the clocks repeat run
// after run; released in map order they did not.
func TestParallelEndReleasesInNodeOrder(t *testing.T) {
	rid := heap.RID{Page: 0, Slot: 0}
	for _, end := range []struct {
		name string
		fin  func(*txn.ParallelTxn) error
	}{{"commit", (*txn.ParallelTxn).Commit}, {"abort", (*txn.ParallelTxn).Abort}} {
		t.Run(end.name, func(t *testing.T) {
			var first []int64
			for run := 0; run < 12; run++ {
				mgr := newMgr(t, 4)
				seedOne(t, mgr, rid, 1)
				p, err := mgr.BeginParallel(3, 1, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, nd := range p.Nodes() {
					if _, err := p.On(nd).Read(rid); err != nil {
						t.Fatal(err)
					}
				}
				if err := end.fin(p); err != nil {
					t.Fatal(err)
				}
				clocks := make([]int64, 4)
				for nd := range clocks {
					clocks[nd] = mgr.DB.M.Clock(machine.NodeID(nd))
				}
				if first == nil {
					first = clocks
				} else if !slices.Equal(clocks, first) {
					t.Fatalf("run %d ended with node clocks %v, run 0 with %v", run, clocks, first)
				}
				if snap, err := mgr.DB.Locks.Snapshot(0); err != nil || len(snap) != 0 {
					t.Fatalf("lock table after the end: %+v, %v", snap, err)
				}
			}
		})
	}
}

func TestBeginParallelValidation(t *testing.T) {
	mgr := newMgr(t, 2)
	if _, err := mgr.BeginParallel(); err == nil {
		t.Error("parallel transaction with no nodes accepted")
	}
}

func TestLockKeyAndRetry(t *testing.T) {
	mgr := newMgr(t, 2)
	t1, _ := mgr.Begin(0)
	t2, _ := mgr.Begin(1)
	if err := t1.LockKey(77, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := t2.LockKey(77, lock.Shared); !errors.Is(err, txn.ErrBlocked) {
		t.Fatalf("conflicting key lock: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- txn.Retry(func() error { return t2.LockKey(77, lock.Shared) })
	}()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Retry after release: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirtyPositive(t *testing.T) {
	mgr := newDirtyMgr(t)
	rid := heap.RID{Page: 0, Slot: 0}
	seedOne(t, mgr, rid, 3)
	writer, _ := mgr.Begin(0)
	if err := writer.Write(rid, []byte{42}); err != nil {
		t.Fatal(err)
	}
	reader, _ := mgr.Begin(1)
	// A dirty read sees the uncommitted value without blocking.
	got, err := reader.ReadDirty(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Errorf("dirty read = %d, want 42", got[0])
	}
	// A locked read would block.
	if _, err := reader.Read(rid); !errors.Is(err, txn.ErrBlocked) {
		t.Errorf("locked read: %v", err)
	}
	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err = reader.ReadDirty(rid)
	if err != nil || got[0] != 3 {
		t.Errorf("dirty read after abort = %v, %v", got, err)
	}
	// Dirty read of a missing record.
	if _, err := reader.ReadDirty(heap.RID{Page: 1, Slot: 0}); !errors.Is(err, txn.ErrNotFound) {
		t.Errorf("dirty read of empty slot: %v", err)
	}
}

func TestFreezeBlocksOps(t *testing.T) {
	mgr := newMgr(t, 2)
	rid := heap.RID{Page: 0, Slot: 0}
	seedOne(t, mgr, rid, 1)
	tx, _ := mgr.Begin(0)
	mgr.DB.Crash(1)
	// Between crash and recovery, survivors stall.
	if _, err := tx.Read(rid); !errors.Is(err, txn.ErrBlocked) {
		t.Errorf("read during freeze: %v", err)
	}
	if _, err := mgr.DB.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(rid); err != nil {
		t.Errorf("read after recovery: %v", err)
	}
}
