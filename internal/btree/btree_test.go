package btree_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"smdb/internal/btree"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// newTree builds a tree over a small-page database so splits happen early:
// LinesPerPage=3 gives 8 slots per page, i.e. 7 entries per node.
func newTree(t *testing.T, proto recovery.Protocol, nodes int) (*btree.Tree, *txn.Manager) {
	t.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: 4096},
		Protocol:       proto,
		LinesPerPage:   3,
		RecsPerLine:    4,
		Pages:          256,
		LockTableLines: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.New(db, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	return tr, txn.NewManager(db)
}

func validate(t *testing.T, tr *btree.Tree, nd machine.NodeID) {
	t.Helper()
	for _, v := range tr.Validate(nd) {
		t.Errorf("tree violation: %s", v)
	}
}

func TestInsertLookup(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	for k := uint64(1); k <= 10; k++ {
		tx := mustBegin(t, mgr, 0)
		if err := tr.Insert(tx, k, k*100); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := mustBegin(t, mgr, 0)
	for k := uint64(1); k <= 10; k++ {
		v, err := tr.Lookup(tx, k)
		if err != nil {
			t.Fatalf("lookup %d: %v", k, err)
		}
		if v != k*100 {
			t.Errorf("lookup %d = %d, want %d", k, v, k*100)
		}
	}
	if _, err := tr.Lookup(tx, 999); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("missing key: err = %v", err)
	}
	if err := tr.Insert(tx, 5, 1); !errors.Is(err, btree.ErrKeyExists) {
		t.Errorf("duplicate insert: err = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	validate(t, tr, 0)
}

func TestSplitsGrowTree(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 1)
	tx, _ := mgr.Begin(0)
	const n = 60
	for k := uint64(1); k <= n; k++ {
		if err := tr.Insert(tx, k*13%997, k); err != nil { // mixed order, distinct
			t.Fatalf("insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx, _ = mgr.Begin(0)
	}
	h, err := tr.Height(0)
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Errorf("height = %d, want >= 3 (splits should have cascaded)", h)
	}
	if tr.PagesUsed() < 5 {
		t.Errorf("pages used = %d, want several", tr.PagesUsed())
	}
	validate(t, tr, 0)
	keys, err := tr.LiveKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Errorf("live keys = %d, want %d", len(keys), n)
	}
	if db := mgr.DB.Stats(); db.NTAForces == 0 {
		t.Error("splits did not early-commit (no NTA forces)")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	for k := uint64(1); k <= 8; k++ {
		tx := mustBegin(t, mgr, 0)
		if err := tr.Insert(tx, k, k); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	ty, _ := mgr.Begin(1)
	if err := tr.Update(ty, 3, 333); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(ty, 5); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Lookup(ty, 3); err != nil || v != 333 {
		t.Errorf("updated value = %d, %v", v, err)
	}
	if _, err := tr.Lookup(ty, 5); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("deleted key visible: %v", err)
	}
	if err := tr.Delete(ty, 5); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("double delete: err = %v", err)
	}
	if err := tr.Update(ty, 5, 1); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("update of deleted key: err = %v", err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	validate(t, tr, 0)
	// The committed tombstone's slot is reusable.
	tz, _ := mgr.Begin(0)
	if err := tr.Insert(tz, 5, 555); err != nil {
		t.Fatalf("reinsert over tombstone: %v", err)
	}
	if err := tz.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Lookup(mustBegin(t, mgr, 0), 5); v != 555 {
		t.Errorf("reinserted value = %d", v)
	}
}

func mustBegin(t *testing.T, mgr *txn.Manager, nd machine.NodeID) *txn.Txn {
	t.Helper()
	tx, err := mgr.Begin(nd)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestAbortUndoesIndexOps(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	setup, _ := mgr.Begin(0)
	for k := uint64(10); k <= 30; k += 10 {
		if err := tr.Insert(setup, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, _ := mgr.Begin(1)
	if err := tr.Insert(tx, 15, 15); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(tx, 20); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(tx, 30, 999); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	check, _ := mgr.Begin(0)
	if _, err := tr.Lookup(check, 15); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("aborted insert visible: %v", err)
	}
	if v, err := tr.Lookup(check, 20); err != nil || v != 20 {
		t.Errorf("aborted delete not undone: %d, %v", v, err)
	}
	if v, err := tr.Lookup(check, 30); err != nil || v != 30 {
		t.Errorf("aborted update not undone: %d, %v", v, err)
	}
	validate(t, tr, 0)
}

func TestSplitSurvivesAbortAndCrash(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	// Fill the root with committed keys so the next insert splits it.
	setup, _ := mgr.Begin(0)
	for k := uint64(1); k <= 7; k++ {
		if err := tr.Insert(setup, k*10, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	pagesBefore := tr.PagesUsed()

	tx, _ := mgr.Begin(1)
	if err := tr.Insert(tx, 25, 25); err != nil { // triggers root split
		t.Fatal(err)
	}
	if tr.PagesUsed() <= pagesBefore {
		t.Fatal("no split happened")
	}
	// Crash the inserting node: the insert must vanish; the split stays.
	db := mgr.DB
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	check, _ := mgr.Begin(0)
	if _, err := tr.Lookup(check, 25); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("crashed insert visible after recovery: %v", err)
	}
	for k := uint64(1); k <= 7; k++ {
		if v, err := tr.Lookup(check, k*10); err != nil || v != k {
			t.Errorf("committed key %d lost: %d, %v", k*10, v, err)
		}
	}
	validate(t, tr, 0)
}

func TestScan(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 1)
	for k := uint64(1); k <= 40; k++ {
		tx := mustBegin(t, mgr, 0)
		if err := tr.Insert(tx, k*3, k); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := mustBegin(t, mgr, 0)
	if err := tr.Delete(tx, 9); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ty, _ := mgr.Begin(0)
	got, err := tr.Scan(ty, 6, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 12, 15, 18, 21} // 9 deleted
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want keys %v", got, want)
	}
	for i, kv := range got {
		if kv[0] != want[i] {
			t.Errorf("scan[%d] key = %d, want %d", i, kv[0], want[i])
		}
	}
}

func TestSplitBusyWithUncommittedRoot(t *testing.T) {
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	tx, _ := mgr.Begin(0)
	// Fill the root leaf with uncommitted entries; the split that the next
	// insert needs would have to relocate tagged entries.
	for k := uint64(1); k <= 7; k++ {
		if err := tr.Insert(tx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(tx, 8, 8); !errors.Is(err, btree.ErrSplitBusy) {
		t.Fatalf("split over uncommitted root: err = %v, want ErrSplitBusy", err)
	}
	// After commit the split can proceed.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ty, _ := mgr.Begin(1)
	if err := tr.Insert(ty, 8, 8); err != nil {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	validate(t, tr, 0)
}

func TestIndexSharingAcrossNodes(t *testing.T) {
	// Two nodes interleave inserts into the same tree: index lines migrate
	// between them; a crash of one node must not disturb the other's keys.
	tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
	for k := uint64(100); k < 130; k++ {
		setup := mustBegin(t, mgr, 0)
		if err := tr.Insert(setup, k, 0); err != nil {
			t.Fatal(err)
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	t0, _ := mgr.Begin(0)
	t1, _ := mgr.Begin(1)
	if err := tr.Insert(t0, 50, 50); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(t1, 51, 51); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(t1, 105, 1); err != nil {
		t.Fatal(err)
	}
	db := mgr.DB
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if v := db.CheckIFA(0); len(v) != 0 {
		for _, s := range v {
			t.Errorf("IFA violation: %s", s)
		}
	}
	check := mustBegin(t, mgr, 0)
	if _, err := tr.Lookup(check, 51); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Errorf("crashed node's insert visible: %v", err)
	}
	if v, err := tr.Lookup(check, 105); err != nil || v != 0 {
		t.Errorf("crashed node's update not undone: %d, %v", v, err)
	}
	// t0 is alive and its insert must still be there (uncommitted).
	if v, err := tr.Lookup(t0, 50); err != nil || v != 50 {
		t.Errorf("survivor's insert lost: %d, %v", v, err)
	}
	if err := t0.Commit(); err != nil {
		t.Fatal(err)
	}
	validate(t, tr, 0)
}

// TestQuickTreeMatchesMap: random interleaved inserts/updates/deletes match
// a map model, and the tree stays structurally valid throughout.
func TestQuickTreeMatchesMap(t *testing.T) {
	type scenario struct{ Seed int64 }
	gen := func(r *rand.Rand) scenario { return scenario{Seed: r.Int63()} }
	_ = gen
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, mgr := newTree(t, recovery.VolatileSelectiveRedo, 2)
		model := make(map[uint64]uint64)
		for i := 0; i < 120; i++ {
			tx, err := mgr.Begin(machine.NodeID(i % 2))
			if err != nil {
				t.Log(err)
				return false
			}
			key := uint64(r.Intn(60) + 1)
			var opErr error
			switch r.Intn(3) {
			case 0: // insert
				opErr = tr.Insert(tx, key, key*2)
				if opErr == nil {
					model[key] = key * 2
				} else if !errors.Is(opErr, btree.ErrKeyExists) {
					t.Logf("seed %d: insert %d: %v", seed, key, opErr)
					return false
				}
			case 1: // delete
				opErr = tr.Delete(tx, key)
				if opErr == nil {
					delete(model, key)
				} else if !errors.Is(opErr, btree.ErrKeyNotFound) {
					t.Logf("seed %d: delete %d: %v", seed, key, opErr)
					return false
				}
			case 2: // update
				opErr = tr.Update(tx, key, key*3)
				if opErr == nil {
					model[key] = key * 3
				} else if !errors.Is(opErr, btree.ErrKeyNotFound) {
					t.Logf("seed %d: update %d: %v", seed, key, opErr)
					return false
				}
			}
			if err := tx.Commit(); err != nil {
				t.Logf("seed %d: commit: %v", seed, err)
				return false
			}
		}
		if v := tr.Validate(0); len(v) != 0 {
			for _, s := range v {
				t.Logf("seed %d: %s", seed, s)
			}
			return false
		}
		got, err := tr.LiveKeys(1)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(got) != len(model) {
			t.Logf("seed %d: %d live keys, want %d", seed, len(got), len(model))
			return false
		}
		for k, v := range model {
			if got[k] != v {
				t.Logf("seed %d: key %d = %d, want %d", seed, k, got[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQuickTreeCrashRecovery: random committed index workloads plus a crash
// with in-flight operations; after recovery the tree must validate and
// contain exactly the committed keys plus surviving in-flight inserts.
func TestQuickTreeCrashRecovery(t *testing.T) {
	f := func(seed int64) bool { return treeCrashRecovers(t, recovery.VolatileSelectiveRedo, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestTreeCrashRecoveryReusedTombstone pins a seed of the quick check above.
// Node 0's in-flight insert reuses a committed tombstone of another key; a
// later split on node 1 moves that key's range to a new leaf; node 0 then
// crashes. The insert's undo must not put the tombstone back into a leaf
// whose range no longer holds its key. Every IFA protocol must recover it.
func TestTreeCrashRecoveryReusedTombstone(t *testing.T) {
	for _, proto := range []recovery.Protocol{recovery.VolatileRedoAll,
		recovery.VolatileSelectiveRedo, recovery.StableEager, recovery.StableTriggered} {
		if !treeCrashRecovers(t, proto, -4700328024382449815) {
			t.Errorf("%v: tree did not recover", proto)
		}
	}
}

// treeCrashRecovers runs one seeded committed workload, starts an insert on
// every node, crashes one of them, recovers, and reports whether the tree
// validates and holds exactly the committed keys plus the survivors'
// inserts.
func treeCrashRecovers(t *testing.T, proto recovery.Protocol, seed int64) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, mgr := newTree(t, proto, 3)
	db := mgr.DB
	committed := make(map[uint64]uint64)
	for i := 0; i < 60; i++ {
		tx, err := mgr.Begin(machine.NodeID(i % 3))
		if err != nil {
			t.Log(err)
			return false
		}
		key := uint64(r.Intn(240) + 1)
		var opErr error
		switch r.Intn(3) {
		case 0:
			opErr = tr.Insert(tx, key, key*2)
			if opErr == nil {
				committed[key] = key * 2
			}
		case 1:
			opErr = tr.Delete(tx, key)
			if opErr == nil {
				delete(committed, key)
			}
		default:
			opErr = tr.Update(tx, key, key*3)
			if opErr == nil {
				committed[key] = key * 3
			}
		}
		if opErr != nil && !errors.Is(opErr, btree.ErrKeyExists) && !errors.Is(opErr, btree.ErrKeyNotFound) {
			t.Logf("seed %d: %v", seed, opErr)
			return false
		}
		if err := tx.Commit(); err != nil {
			t.Log(err)
			return false
		}
	}
	// In-flight ops on each node: interior keys absent from the tree,
	// spread across distinct leaves (several uncommitted inserts in one
	// leaf would block its split by design).
	pick := func(lo uint64) uint64 {
		for k := lo; ; k++ {
			if _, ok := committed[k]; !ok {
				return k
			}
		}
	}
	inflight := map[machine.NodeID]uint64{}
	for n := machine.NodeID(0); n < 3; n++ {
		key := pick(uint64(20 + int(n)*80))
		tx, err := mgr.Begin(n)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := tr.Insert(tx, key, 1); err != nil {
			t.Logf("seed %d: inflight: %v", seed, err)
			return false
		}
		inflight[n] = key
	}
	victim := machine.NodeID(r.Intn(3))
	db.Crash(victim)
	if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
		t.Log(err)
		return false
	}
	if v := tr.Validate(db.M.AliveNodes()[0]); len(v) != 0 {
		t.Logf("seed %d: %v", seed, v)
		return false
	}
	if v := db.CheckIFA(db.M.AliveNodes()[0]); len(v) != 0 {
		t.Logf("seed %d: IFA: %v", seed, v)
		return false
	}
	live, err := tr.LiveKeys(db.M.AliveNodes()[0])
	if err != nil {
		t.Log(err)
		return false
	}
	// Committed keys all present with right values.
	for k, v := range committed {
		if live[k] != v {
			t.Logf("seed %d: committed key %d = %d, want %d", seed, k, live[k], v)
			return false
		}
	}
	// Crashed node's in-flight insert gone; survivors' present.
	for n, k := range inflight {
		_, present := live[k]
		if n == victim && present {
			t.Logf("seed %d: crashed insert %d visible", seed, k)
			return false
		}
		if n != victim && !present {
			t.Logf("seed %d: surviving insert %d lost", seed, k)
			return false
		}
	}
	return len(live) == len(committed)+2
}
