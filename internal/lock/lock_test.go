package lock

import (
	"errors"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

func newSM(t *testing.T, nodes, tableLines int, lm LogMode) (*SMManager, []*wal.Log, *machine.Machine) {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, Lines: tableLines + 64})
	logs := make([]*wal.Log, nodes)
	for i := range logs {
		var err error
		logs[i], err = wal.NewLog(machine.NodeID(i), storage.NewLogDevice())
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSMManager(m, tableLines, logs, lm)
	if err != nil {
		t.Fatal(err)
	}
	return s, logs, m
}

func TestModeCompatibility(t *testing.T) {
	if !Compatible(Shared, Shared) {
		t.Error("S-S should be compatible")
	}
	for _, pair := range [][2]Mode{{Shared, Exclusive}, {Exclusive, Shared}, {Exclusive, Exclusive}} {
		if Compatible(pair[0], pair[1]) {
			t.Errorf("%v-%v should conflict", pair[0], pair[1])
		}
	}
}

func TestNames(t *testing.T) {
	a := NameOfRID(heap.RID{Page: 1, Slot: 2})
	b := NameOfRID(heap.RID{Page: 1, Slot: 3})
	c := NameOfKey(0x10002)
	d := NameOfPage(storage.PageID(1))
	names := map[Name]bool{a: true, b: true, c: true, d: true}
	if len(names) != 4 {
		t.Errorf("name collision among %v %v %v %v", a, b, c, d)
	}
	if a == 0 || c == 0 || d == 0 {
		t.Error("reserved zero name produced")
	}
}

func TestAcquireReleaseBasic(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogAllLocks)
	tx := wal.MakeTxnID(0, 1)
	name := NameOfKey(7)
	granted, err := s.Acquire(0, tx, name, Exclusive)
	if err != nil || !granted {
		t.Fatalf("Acquire = %v, %v", granted, err)
	}
	mode, held, err := s.Holds(0, tx, name)
	if err != nil || !held || mode != Exclusive {
		t.Fatalf("Holds = %v, %v, %v", mode, held, err)
	}
	if err := s.Release(0, tx, name); err != nil {
		t.Fatal(err)
	}
	if _, held, _ := s.Holds(0, tx, name); held {
		t.Error("held after release")
	}
	if err := s.Release(0, tx, name); !errors.Is(err, ErrNotHeld) {
		t.Errorf("double release: err = %v, want ErrNotHeld", err)
	}
}

func TestSharedConcurrencyAndConflict(t *testing.T) {
	s, _, _ := newSM(t, 3, 64, LogAllLocks)
	t1, t2, t3 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1), wal.MakeTxnID(2, 1)
	name := NameOfKey(99)
	for nd, tx := range map[machine.NodeID]wal.TxnID{0: t1, 1: t2} {
		if g, err := s.Acquire(nd, tx, name, Shared); err != nil || !g {
			t.Fatalf("shared acquire by %v: %v, %v", tx, g, err)
		}
	}
	// X conflicts with the two S holders: queued.
	g, err := s.Acquire(2, t3, name, Exclusive)
	if err != nil || g {
		t.Fatalf("conflicting X: granted = %v, err = %v", g, err)
	}
	// FIFO: a later S request must queue behind the waiting X.
	t4 := wal.MakeTxnID(2, 2)
	if g, err := s.Acquire(2, t4, name, Shared); err != nil || g {
		t.Fatalf("S behind waiting X: granted = %v, err = %v", g, err)
	}
	// Release both S holders: X is promoted; the queued S still waits.
	if err := s.Release(0, t1, name); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(1, t2, name); err != nil {
		t.Fatal(err)
	}
	if _, held, _ := s.Holds(2, t3, name); !held {
		t.Error("X not promoted after S releases")
	}
	if _, held, _ := s.Holds(2, t4, name); held {
		t.Error("S granted while X held")
	}
	// Release X: S promoted.
	if err := s.Release(2, t3, name); err != nil {
		t.Fatal(err)
	}
	if _, held, _ := s.Holds(2, t4, name); !held {
		t.Error("S not promoted after X release")
	}
	if st := s.Stats(); st.Promotions != 2 {
		t.Errorf("Promotions = %d, want 2", st.Promotions)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogAllLocks)
	tx := wal.MakeTxnID(0, 1)
	name := NameOfKey(5)
	if g, _ := s.Acquire(0, tx, name, Shared); !g {
		t.Fatal("S not granted")
	}
	// Re-acquire in the same mode: no-op grant.
	if g, _ := s.Acquire(0, tx, name, Shared); !g {
		t.Fatal("reacquire not granted")
	}
	// Upgrade while sole holder: granted.
	if g, _ := s.Acquire(0, tx, name, Exclusive); !g {
		t.Fatal("sole-holder upgrade not granted")
	}
	if mode, _, _ := s.Holds(0, tx, name); mode != Exclusive {
		t.Errorf("mode after upgrade = %v", mode)
	}
	// Downgrade request (X holder asks S): no-op grant, stays X.
	if g, _ := s.Acquire(0, tx, name, Shared); !g {
		t.Fatal("weaker reacquire not granted")
	}
	if mode, _, _ := s.Holds(0, tx, name); mode != Exclusive {
		t.Errorf("mode = %v, want X preserved", mode)
	}
}

func TestUpgradeWaitsWithOtherHolders(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogAllLocks)
	t1, t2 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1)
	name := NameOfKey(6)
	s.Acquire(0, t1, name, Shared)
	s.Acquire(1, t2, name, Shared)
	g, err := s.Acquire(0, t1, name, Exclusive)
	if err != nil || g {
		t.Fatalf("upgrade with co-holder: granted = %v", g)
	}
	// Releasing the other holder promotes the upgrade.
	if err := s.Release(1, t2, name); err != nil {
		t.Fatal(err)
	}
	if mode, held, _ := s.Holds(0, t1, name); !held || mode != Exclusive {
		t.Errorf("upgrade not promoted: %v, %v", mode, held)
	}
}

func TestCancelWait(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogAllLocks)
	t1, t2, t3 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1), wal.MakeTxnID(1, 2)
	name := NameOfKey(8)
	s.Acquire(0, t1, name, Exclusive)
	s.Acquire(1, t2, name, Exclusive) // waits
	s.Acquire(1, t3, name, Shared)    // waits behind t2
	if _, err := s.WithdrawWait(1, t2, name); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(0, t1, name); err != nil {
		t.Fatal(err)
	}
	if _, held, _ := s.Holds(1, t3, name); !held {
		t.Error("t3 not promoted after cancel + release")
	}
	// Cancel of a non-waiter is a no-op.
	if _, err := s.WithdrawWait(1, t2, name); err != nil {
		t.Fatal(err)
	}
}

// TestWithdrawThenRelease is the sequence a transaction's end issues for the
// request it left queued — WithdrawWait, then Release of whatever that
// reports held — over the three states the request can be in. No entry of
// the transaction may remain, and the next in line must get the lock.
func TestWithdrawThenRelease(t *testing.T) {
	name := NameOfKey(8)
	t1, t2, t3 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1), wal.MakeTxnID(1, 2)
	for _, c := range []struct {
		name     string
		prepare  func(s *SMManager) // leaves t2's request in the case's state
		wantHeld Mode               // what WithdrawWait must report
	}{
		{"queued", func(s *SMManager) {
			s.Acquire(0, t1, name, Exclusive)
			s.Acquire(1, t2, name, Exclusive)
		}, 0},
		{"late grant", func(s *SMManager) {
			s.Acquire(0, t1, name, Exclusive)
			s.Acquire(1, t2, name, Exclusive)
			s.Release(0, t1, name) // promotes t2 before it withdraws
		}, Exclusive},
		{"queued upgrade", func(s *SMManager) {
			s.Acquire(0, t1, name, Shared)
			s.Acquire(1, t2, name, Shared)
			s.Acquire(1, t2, name, Exclusive) // waits for t1
		}, Shared},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _, _ := newSM(t, 2, 64, LogAllLocks)
			c.prepare(s)
			s.Acquire(1, t3, name, Exclusive) // queues behind everybody
			held, err := s.WithdrawWait(1, t2, name)
			if err != nil || held != c.wantHeld {
				t.Fatalf("WithdrawWait = %v, %v; want %v", held, err, c.wantHeld)
			}
			if held != 0 {
				if err := s.Release(1, t2, name); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.Snapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ls := range snap {
				for _, e := range append(ls.Holders, ls.Waiters...) {
					if e.Txn == t2 {
						t.Fatalf("t2 still in the lock space: %+v", ls)
					}
				}
			}
			// t1, where it still holds, finishes; t3 must then hold alone.
			if err := s.Release(0, t1, name); err != nil && !errors.Is(err, ErrNotHeld) {
				t.Fatal(err)
			}
			if m, ok, err := s.Holds(1, t3, name); err != nil || !ok || m != Exclusive {
				t.Fatalf("t3 not granted after t2 ended: %v, %v, %v", m, ok, err)
			}
		})
	}
}

func TestProbingWithCollisions(t *testing.T) {
	// A 2-line table forces collisions and wraparound.
	s, _, _ := newSM(t, 1, 2, LogNoLocks)
	tx := wal.MakeTxnID(0, 1)
	n1, n2 := NameOfKey(1), NameOfKey(2)
	if g, err := s.Acquire(0, tx, n1, Exclusive); err != nil || !g {
		t.Fatal(g, err)
	}
	if g, err := s.Acquire(0, tx, n2, Exclusive); err != nil || !g {
		t.Fatal(g, err)
	}
	// Table is full now.
	if _, err := s.Acquire(0, tx, NameOfKey(3), Exclusive); !errors.Is(err, ErrLockTableFull) {
		t.Errorf("full table: err = %v, want ErrLockTableFull", err)
	}
	// Release n1 (tombstone), n2 must still be findable past the tombstone.
	if err := s.Release(0, tx, n1); err != nil {
		t.Fatal(err)
	}
	if _, held, err := s.Holds(0, tx, n2); err != nil || !held {
		t.Errorf("n2 lost after tombstoning n1: %v, %v", held, err)
	}
	// The tombstone is reusable.
	if g, err := s.Acquire(0, tx, NameOfKey(3), Exclusive); err != nil || !g {
		t.Errorf("tombstone not reused: %v, %v", g, err)
	}
}

func TestLCBCapacity(t *testing.T) {
	s, _, _ := newSM(t, 1, 16, LogNoLocks)
	name := NameOfKey(1)
	cap := s.entryCap()
	for i := 0; i < cap; i++ {
		if g, err := s.Acquire(0, wal.MakeTxnID(0, uint64(i+1)), name, Shared); err != nil || !g {
			t.Fatalf("S holder %d: %v, %v", i, g, err)
		}
	}
	_, err := s.Acquire(0, wal.MakeTxnID(0, uint64(cap+1)), name, Shared)
	if !errors.Is(err, ErrLCBFull) {
		t.Errorf("over-capacity LCB: err = %v, want ErrLCBFull", err)
	}
}

func TestLockLogging(t *testing.T) {
	for _, tc := range []struct {
		lm        LogMode
		wantRecs  int // acquire S + acquire X + release X + release S records
		wantTypes []wal.RecordType
	}{
		{LogNoLocks, 0, nil},
		{LogWriteLocks, 2, []wal.RecordType{wal.TypeLockAcquire, wal.TypeLockRelease}},
		{LogAllLocks, 4, []wal.RecordType{wal.TypeLockAcquire, wal.TypeLockAcquire, wal.TypeLockRelease, wal.TypeLockRelease}},
	} {
		s, logs, _ := newSM(t, 1, 64, tc.lm)
		tx := wal.MakeTxnID(0, 1)
		s.Acquire(0, tx, NameOfKey(1), Shared)
		s.Acquire(0, tx, NameOfKey(2), Exclusive)
		s.Release(0, tx, NameOfKey(2))
		s.Release(0, tx, NameOfKey(1))
		recs := logs[0].Records(1)
		if len(recs) != tc.wantRecs {
			t.Errorf("LogMode %d: %d records, want %d", tc.lm, len(recs), tc.wantRecs)
			continue
		}
		for i, want := range tc.wantTypes {
			if recs[i].Type != want {
				t.Errorf("LogMode %d: record %d = %v, want %v", tc.lm, i, recs[i].Type, want)
			}
		}
	}
}

// TestLCBMigrationAndCrash reproduces the section 3.1 lock-table scenario:
// two transactions on different nodes hold a shared lock whose LCB sits in
// one cache line; the LCB is valid only at the node that last acquired, so
// that node's crash destroys both holders' lock information.
func TestLCBMigrationAndCrash(t *testing.T) {
	s, _, m := newSM(t, 2, 8, LogAllLocks)
	t0, t1 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1)
	name := NameOfKey(42)
	if g, _ := s.Acquire(0, t0, name, Shared); !g {
		t.Fatal("t0 S not granted")
	}
	if g, _ := s.Acquire(1, t1, name, Shared); !g {
		t.Fatal("t1 S not granted")
	}
	// Node 1's crash destroys the LCB (it holds the only copy after its
	// acquire), losing node 0's lock info too — the recovery problem.
	m.Crash(1)
	if got := s.LostLCBCount(); got != 1 {
		t.Fatalf("LostLCBCount = %d, want 1 (the LCB line died with node 1)", got)
	}
	// Recovery: reinstall lost lines as tombstones, then node 0 re-requests
	// its surviving transactions' locks (idempotent Acquire).
	if n, err := s.ReinstallLost(0); err != nil || n != 1 {
		t.Fatalf("ReinstallLost = %d, %v", n, err)
	}
	if g, err := s.Acquire(0, t0, name, Shared); err != nil || !g {
		t.Fatalf("re-acquire after rebuild: %v, %v", g, err)
	}
	snap, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0].Holders) != 1 || snap[0].Holders[0].Txn != t0 {
		t.Errorf("rebuilt lock space = %+v, want only t0's hold", snap)
	}
}

func TestReleaseCrashed(t *testing.T) {
	s, _, m := newSM(t, 3, 32, LogAllLocks)
	tSurvivor := wal.MakeTxnID(0, 1)
	tDead := wal.MakeTxnID(2, 1)
	nameShared := NameOfKey(1)
	nameDead := NameOfKey(2)
	s.Acquire(0, tSurvivor, nameShared, Shared)
	s.Acquire(2, tDead, nameShared, Shared)
	s.Acquire(2, tDead, nameDead, Exclusive)
	// A survivor waits behind the dead transaction's X lock.
	if g, _ := s.Acquire(0, tSurvivor, nameDead, Exclusive); g {
		t.Fatal("should wait behind tDead")
	}
	// Keep the LCB lines alive on a surviving node: node 0 touches them
	// last (Holds on a present name takes the line lock, migrating the
	// line), so they reside there, not on the crashing node.
	for _, n := range []Name{nameShared, nameDead} {
		if _, _, err := s.Holds(0, tDead, n); err != nil {
			t.Fatal(err)
		}
	}
	m.Crash(2)
	released, err := s.ReleaseCrashed(0, []machine.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	if released != 2 {
		t.Errorf("released %d entries, want 2", released)
	}
	// tSurvivor keeps its shared lock and is promoted to the X lock.
	if _, held, _ := s.Holds(0, tSurvivor, nameShared); !held {
		t.Error("survivor's shared lock lost")
	}
	if mode, held, _ := s.Holds(0, tSurvivor, nameDead); !held || mode != Exclusive {
		t.Errorf("survivor not promoted: %v, %v", mode, held)
	}
}

func TestWaitsForAndDeadlock(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogNoLocks)
	tA, tB := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1)
	n1, n2 := NameOfKey(1), NameOfKey(2)
	s.Acquire(0, tA, n1, Exclusive)
	s.Acquire(1, tB, n2, Exclusive)
	if victim, err := s.FindDeadlock(0); err != nil || victim != 0 {
		t.Fatalf("no deadlock yet: victim = %v, err = %v", victim, err)
	}
	s.Acquire(0, tA, n2, Exclusive) // A waits for B
	s.Acquire(1, tB, n1, Exclusive) // B waits for A: cycle
	g, err := s.WaitsFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g[tA]) != 1 || g[tA][0] != tB || len(g[tB]) != 1 || g[tB][0] != tA {
		t.Errorf("waits-for = %v", g)
	}
	victim, err := s.FindDeadlock(0)
	if err != nil || victim == 0 {
		t.Fatalf("deadlock not found: %v, %v", victim, err)
	}
	if victim != tA && victim != tB {
		t.Errorf("victim = %v, want tA or tB", victim)
	}
}

func TestSDManagerBasics(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, Lines: 16})
	s := NewSDManager(m, true)
	tx := wal.MakeTxnID(0, 1)
	name := NameOfKey(10)
	owner := s.Owner(name)
	requester := machine.NodeID((int(owner) + 2) % 4) // definitely remote
	before := m.Clock(requester)
	g, err := s.Acquire(requester, tx, name, Exclusive)
	if err != nil || !g {
		t.Fatalf("Acquire = %v, %v", g, err)
	}
	cost := m.Clock(requester) - before
	rtt := m.Config().Cost.MessageRoundTrip
	if cost < 2*rtt { // remote request + replication
		t.Errorf("remote acquire cost %d, want >= %d", cost, 2*rtt)
	}
	if mode, held, _ := s.Holds(requester, tx, name); !held || mode != Exclusive {
		t.Error("not held after grant")
	}
	if err := s.Release(requester, tx, name); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Messages < 4 {
		t.Errorf("Messages = %d, want >= 4", st.Messages)
	}
}

func TestSDManagerConflictAndPromotion(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, Lines: 16})
	s := NewSDManager(m, false)
	t1, t2 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1)
	name := NameOfKey(3)
	if g, _ := s.Acquire(0, t1, name, Exclusive); !g {
		t.Fatal("t1 X not granted")
	}
	if g, _ := s.Acquire(1, t2, name, Exclusive); g {
		t.Fatal("t2 X granted over conflict")
	}
	if err := s.Release(0, t1, name); err != nil {
		t.Fatal(err)
	}
	if _, held, _ := s.Holds(1, t2, name); !held {
		t.Error("t2 not promoted")
	}
}

func TestSDManagerCrashWithReplication(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, Lines: 16})
	s := NewSDManager(m, true)
	name := NameOfKey(10)
	owner := s.Owner(name)
	surv := machine.NodeID((int(owner) + 2) % 4)
	tSurv := wal.MakeTxnID(surv, 1)
	tDead := wal.MakeTxnID(owner, 1)
	s.Acquire(surv, tSurv, name, Shared)
	s.Acquire(owner, tDead, name, Shared)
	// Crash the owner: the replica takes over; the survivor's lock must
	// persist and the dead transaction's lock must be released.
	s.Crash(owner)
	if _, held, _ := s.Holds(surv, tSurv, name); !held {
		t.Error("survivor's lock lost despite replication")
	}
	if _, held, _ := s.Holds(surv, tDead, name); held {
		t.Error("crashed transaction's lock not released")
	}
}

// TestUpgradeRetryDoesNotDuplicateWaiter is a regression test: a retried
// upgrade request used to append a fresh waiter entry on every attempt;
// stale duplicates outlived the (deadlock-victim) transaction, and a later
// promotion resurrected it as a holder, wedging the lock forever.
func TestUpgradeRetryDoesNotDuplicateWaiter(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogNoLocks)
	t1, t2 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1)
	name := NameOfKey(1)
	s.Acquire(0, t1, name, Shared)
	s.Acquire(1, t2, name, Shared)
	// t1 retries its upgrade many times, as a blocked transaction does.
	for i := 0; i < 5; i++ {
		if g, err := s.Acquire(0, t1, name, Exclusive); err != nil || g {
			t.Fatalf("retry %d: granted=%v err=%v", i, g, err)
		}
	}
	snap, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || len(snap[0].Waiters) != 1 {
		t.Fatalf("waiters = %+v, want exactly one upgrade entry", snap)
	}
	// t1 gives up (deadlock victim): cancel + release. No trace may remain.
	if _, err := s.WithdrawWait(0, t1, name); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(0, t1, name); err != nil {
		t.Fatal(err)
	}
	// t2 releases: the lock space must end empty — a resurrected t1 entry
	// would wedge the lock.
	if err := s.Release(1, t2, name); err != nil {
		t.Fatal(err)
	}
	snap, _ = s.Snapshot(0)
	if len(snap) != 0 {
		t.Errorf("lock space not empty: %+v", snap)
	}
}
