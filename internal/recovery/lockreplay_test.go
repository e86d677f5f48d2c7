package recovery

import (
	"fmt"
	"testing"

	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// eventFunc is an observer sink that calls itself.
type eventFunc func(obs.Event)

func (f eventFunc) OnEvent(e obs.Event) { f(e) }

// lockReplayScene fills survivor node 1's log with the lock records of
// finished transactions, interleaved with those of the live ones
// lock replay must rebuild:
//
//   - rel holds a, released it (ReleaseLocks without finishing) and took it
//     again: acquire, release, acquire;
//   - up holds b shared, then upgraded it: two acquires, one lock;
//   - hold holds c, and queued waits for it: an acquire record for a request
//     that was never granted;
//   - late holds d (the transaction the replay's grant races, see below).
//
// Node 0 then queues behind a, b, c and d, which leaves their LCB lines
// cached on node 0 alone, and crashes: the replay has those LCBs to rebuild.
// It returns the live transactions.
func lockReplayScene(t *testing.T, proto Protocol, finished int) (db *DB, live []wal.TxnID) {
	t.Helper()
	db = newNodeTestDB(t, proto, 2)
	a, b, c, d := lock.NameOfKey(1), lock.NameOfKey(2), lock.NameOfKey(3), lock.NameOfKey(4)
	mustLock := func(id wal.TxnID, name lock.Name, mode lock.Mode, granted bool) {
		t.Helper()
		if got, err := db.Lock(id, name, mode); err != nil || got != granted {
			t.Fatalf("Lock(%v, %v, %v) = %v, %v; want %v", id, name, mode, got, err, granted)
		}
	}
	// finish runs n finished transactions on node 1, over names of their own:
	// one or two locks each, most committed, every fifth aborted.
	finish := func(n int) {
		for i := 0; i < n; i++ {
			id := mustBegin(t, db, 1)
			mustLock(id, lock.NameOfKey(uint64(100+i%32)), lock.Mode(1+i%2), true)
			if i%3 == 0 {
				mustLock(id, lock.NameOfKey(uint64(200+i%16)), lock.Shared, true)
			}
			end := db.Commit
			if i%5 == 0 {
				end = db.Abort
			}
			if err := end(1, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel, up, hold, queued, late := mustBegin(t, db, 1), mustBegin(t, db, 1), mustBegin(t, db, 1), mustBegin(t, db, 1), mustBegin(t, db, 1)
	finish(finished / 3)
	mustLock(rel, a, lock.Exclusive, true)
	mustLock(up, b, lock.Shared, true)
	finish(finished / 3)
	if err := db.ReleaseLocks(rel); err != nil {
		t.Fatal(err)
	}
	mustLock(up, b, lock.Exclusive, true)
	mustLock(hold, c, lock.Exclusive, true)
	mustLock(queued, c, lock.Exclusive, false)
	mustLock(rel, a, lock.Exclusive, true)
	mustLock(late, d, lock.Exclusive, true)
	finish(finished - 2*(finished/3))
	for _, name := range []lock.Name{a, b, c, d} {
		mustLock(mustBegin(t, db, 0), name, lock.Exclusive, false)
	}
	db.Crash(0)
	if db.Locks.LostLCBCount() == 0 {
		t.Fatal("choreography failed: the crash destroyed no LCB line")
	}
	return db, []wal.TxnID{rel, up, hold, queued, late}
}

// bookkept returns what the live transactions' own state records as held, by
// lock name, and how many locks that is.
func bookkept(db *DB, live []wal.TxnID) (map[lock.Name][]lock.Entry, int) {
	want := map[lock.Name][]lock.Entry{}
	n := 0
	for _, id := range live {
		if !db.txnLive(id) {
			continue
		}
		held, _ := db.TxnLocks(id)
		for _, h := range held {
			want[h.Name] = append(want[h.Name], lock.Entry{Txn: id, Mode: h.Mode})
			n++
		}
	}
	return want, n
}

// checkTableIsBookkeeping fails unless the lock table holds exactly what the
// live transactions' state records, with nobody waiting.
func checkTableIsBookkeeping(t *testing.T, db *DB, live []wal.TxnID) {
	t.Helper()
	want, _ := bookkept(db, live)
	snap, err := db.Locks.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[lock.Name][]lock.Entry{}
	for _, ls := range snap {
		if len(ls.Waiters) != 0 {
			t.Errorf("%v has waiters after the replay: %+v", ls.Name, ls.Waiters)
		}
		if len(ls.Holders) != 0 {
			got[ls.Name] = ls.Holders
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lock table after recovery = %v; the live transactions' bookkeeping says %v", got, want)
	}
}

// TestLockReplayOnlyLiveTransactions: restart recovery's lock replay, which
// reads only live transactions' lock records, rebuilds exactly what their
// bookkeeping says they hold — a lock released and taken again once, an
// upgraded lock in its upgraded mode, a queued request not at all — however
// many finished transactions' records surround them, and counts each rebuilt
// lock once in LocksReplayed. A transaction that finishes between the scan
// and its grant has the grant taken back. The replay over a log with four
// times the finished transactions allocates no more.
func TestLockReplayOnlyLiveTransactions(t *testing.T) {
	for _, proto := range []Protocol{VolatileSelectiveRedo, VolatileRedoAll} {
		t.Run(proto.String(), func(t *testing.T) {
			db, live := lockReplayScene(t, proto, 3000)
			want, n := bookkept(db, live)
			if n != 4 || len(want) != 4 {
				t.Fatalf("bookkeeping before recovery = %v; the scene means four locks on a, b, c, d", want)
			}
			rep, err := db.Recover([]machine.NodeID{0})
			if err != nil {
				t.Fatal(err)
			}
			if rep.LocksReplayed != n {
				t.Errorf("LocksReplayed = %d, want %d (one per lock the bookkeeping records)", rep.LocksReplayed, n)
			}
			checkTableIsBookkeeping(t, db, live)
			if v := db.CheckIFA(1); len(v) != 0 {
				t.Fatalf("IFA violations: %v", v)
			}
		})
	}

	t.Run("finish between scan and grant", func(t *testing.T) {
		db, live := lockReplayScene(t, VolatileSelectiveRedo, 300)
		late := live[len(live)-1]
		st := db.lookup(late)
		// The replay's grant of d to late is the instant it finishes: its
		// ReleaseLocks would have run against the half-rebuilt table and
		// found nothing, so only the status change is left to make. To the
		// replay this is the same as a finish anywhere between its
		// bookkeeping check and its re-check after the grant.
		d := lock.NameOfKey(4)
		o := obs.New()
		o.SetSink(eventFunc(func(e obs.Event) {
			if e.Kind == obs.KindLockAcquire && lock.Name(e.A) == d && db.recovering.Load() {
				st.status.Store(int32(TxnAborted))
			}
		}))
		db.AttachObserver(o)
		rep, err := db.Recover([]machine.NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		if st.stat() != TxnAborted {
			t.Fatal("the replay never granted d: the case tests nothing")
		}
		_, n := bookkept(db, live)
		if rep.LocksReplayed != n || n != 3 {
			t.Errorf("LocksReplayed = %d, bookkeeping of the still-live transactions %d; want both 3", rep.LocksReplayed, n)
		}
		checkTableIsBookkeeping(t, db, live)
	})

	t.Run("allocations", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts mean nothing under the race detector")
		}
		allocs := make([]float64, 0, 2)
		for _, finished := range []int{500, 2000} {
			db, _ := lockReplayScene(t, VolatileSelectiveRedo, finished)
			if _, err := db.Recover([]machine.NodeID{0}); err != nil {
				t.Fatal(err)
			}
			// Replaying again re-grants what is already held: nothing in the
			// table changes, and with logging suppressed nothing is logged.
			v := db.view(1, 1, &redoList{})
			db.Locks.SetLogSuppressed(true)
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if n, err := db.replayNodeLocks(v); err != nil || n != 4 {
					t.Fatalf("replay = %d, %v; want the 4 live locks", n, err)
				}
			}))
			db.Locks.SetLogSuppressed(false)
		}
		if allocs[1] > allocs[0] {
			t.Errorf("the replay allocates %.0f times over 500 finished transactions and %.0f over 2000; want no more", allocs[0], allocs[1])
		}
	})
}
