package lock

import (
	"sync"
	"testing"
	"unsafe"

	"smdb/internal/machine"
	"smdb/internal/wal"
)

// TestNodeStatsLayout: one node's counter block is exactly one cache line.
func TestNodeStatsLayout(t *testing.T) {
	if sz := unsafe.Sizeof(nodeStats{}); sz != 64 {
		t.Errorf("nodeStats is %d bytes, want 64", sz)
	}
}

// TestShardedLockStats drives every node from its own goroutine on names of
// its own and checks that the per-node blocks sum exactly in Stats().
func TestShardedLockStats(t *testing.T) {
	const nodes, pairs = 4, 500
	s, _, _ := newSM(t, nodes, 256, LogAllLocks)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(nd machine.NodeID) {
			defer wg.Done()
			txn := wal.MakeTxnID(nd, 1)
			for i := 0; i < pairs; i++ {
				name := NameOfKey(uint64(nd)<<32 | uint64(i%8))
				if g, err := s.Acquire(nd, txn, name, Exclusive); err != nil || !g {
					t.Errorf("node %d: Acquire = %v, %v", nd, g, err)
					return
				}
				if err := s.Release(nd, txn, name); err != nil {
					t.Errorf("node %d: Release: %v", nd, err)
					return
				}
			}
		}(machine.NodeID(n))
	}
	wg.Wait()
	got := s.Stats()
	if got.Acquires != nodes*pairs || got.Grants != nodes*pairs || got.Releases != nodes*pairs ||
		got.Waits != 0 || got.LockLogs != 2*nodes*pairs || got.Probes < 2*nodes*pairs {
		t.Errorf("Stats() = %+v after %d acquire/release pairs on each of %d nodes", got, pairs, nodes)
	}
	for n := range s.stats {
		if a := s.stats[n].Acquires; a != pairs {
			t.Errorf("node %d block counts %d acquires, want its own %d", n, a, pairs)
		}
	}
	if d := got.Sub(Stats{Acquires: 1, Probes: 2}); d.Acquires != got.Acquires-1 || d.Probes != got.Probes-2 || d.Grants != got.Grants {
		t.Errorf("Sub = %+v", d)
	}
}

// TestWithdrawWaitReportsLateGrant: a request granted by a release before its
// owner withdraws it is no longer a wait; WithdrawWait must say what the
// transaction now holds so the caller can record it (a deadlock victim that
// dropped it on the floor finished with the lock held, and every later
// request for it queued for good).
func TestWithdrawWaitReportsLateGrant(t *testing.T) {
	s, _, _ := newSM(t, 2, 64, LogAllLocks)
	t1, t2, t3 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1), wal.MakeTxnID(1, 2)
	name := NameOfKey(9)
	if g, err := s.Acquire(0, t1, name, Exclusive); err != nil || !g {
		t.Fatal(g, err)
	}
	if g, err := s.Acquire(1, t2, name, Exclusive); err != nil || g {
		t.Fatalf("t2 should queue: granted=%v err=%v", g, err)
	}
	// Still queued: the withdrawal takes effect and t2 holds nothing.
	if held, err := s.WithdrawWait(1, t2, name); err != nil || held != 0 {
		t.Fatalf("WithdrawWait of a queued request = %v, %v; want 0", held, err)
	}
	if g, err := s.Acquire(1, t2, name, Exclusive); err != nil || g {
		t.Fatalf("t2 should queue again: granted=%v err=%v", g, err)
	}
	if err := s.Release(0, t1, name); err != nil { // grants t2's request
		t.Fatal(err)
	}
	if held, err := s.WithdrawWait(1, t2, name); err != nil || held != Exclusive {
		t.Fatalf("WithdrawWait after the grant = %v, %v; want X", held, err)
	}
	if m, held, err := s.Holds(1, t2, name); err != nil || !held || m != Exclusive {
		t.Fatalf("t2 lost its grant to WithdrawWait: %v, %v, %v", m, held, err)
	}
	// An upgrade wait: the withdrawal keeps, and reports, the prior grant.
	s2, _, _ := newSM(t, 2, 64, LogAllLocks)
	s2.Acquire(0, t1, name, Shared)
	s2.Acquire(1, t3, name, Shared)
	if g, err := s2.Acquire(1, t3, name, Exclusive); err != nil || g {
		t.Fatalf("upgrade should queue: granted=%v err=%v", g, err)
	}
	if held, err := s2.WithdrawWait(1, t3, name); err != nil || held != Shared {
		t.Fatalf("WithdrawWait of an upgrade = %v, %v; want S", held, err)
	}
}
