package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

func newNodeTestDB(t *testing.T, proto Protocol, nodes int) *DB {
	t.Helper()
	db, err := New(Config{
		Machine:  machine.Config{Nodes: nodes, Lines: 4096},
		Protocol: proto, LinesPerPage: 4, RecsPerLine: 4, Pages: 16, LockTableLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// within fails the test with every goroutine's stack if fn does not return in
// time: the lock-order tests below detect a violation as a deadlock.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("deadlock: not done after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// TestNodeCtlLayout: a node's control block is a whole number of cache
// lines and ends in at least a line of padding, so wherever the allocator
// starts the array, two nodes' fields share no line.
func TestNodeCtlLayout(t *testing.T) {
	var nc nodeCtl
	if sz := unsafe.Sizeof(nc); sz%64 != 0 {
		t.Errorf("nodeCtl is %d bytes, not a multiple of 64", sz)
	}
	if pad := unsafe.Sizeof(nc) - (unsafe.Offsetof(nc.imgs) + unsafe.Sizeof(nc.imgs)); pad < 64 {
		t.Errorf("nodeCtl ends in %d bytes of padding, want at least 64", pad)
	}
}

// TestVersionsOwnsItsLine: the global version counter, added to on every
// update, sits alone on its 64-byte line — the struct layout guarantees it
// wherever the allocator starts the DB, and a live DB shows it — so no
// field every operation reads (BM, Logs, Locks, frozen, hk) shares it.
func TestVersionsOwnsItsLine(t *testing.T) {
	var db DB
	before := unsafe.Offsetof(db.versions) - (unsafe.Offsetof(db.Locks) + unsafe.Sizeof(db.Locks))
	after := unsafe.Offsetof(db.frozen) - (unsafe.Offsetof(db.versions) + unsafe.Sizeof(db.versions))
	if before < 56 || after < 56 {
		t.Errorf("versions has %d bytes of padding before it and %d after, want at least 56 each", before, after)
	}
	live := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	line := uintptr(unsafe.Pointer(&live.versions)) &^ 63
	if end := uintptr(unsafe.Pointer(&live.Locks)) + unsafe.Sizeof(live.Locks); end > line {
		t.Errorf("Locks ends at %#x, inside versions' line at %#x", end, line)
	}
	if next := uintptr(unsafe.Pointer(&live.frozen)); next < line+64 {
		t.Errorf("frozen starts at %#x, inside versions' line at %#x", next, line)
	}
}

// TestTxnTableAcrossBlocks grows one node's transaction table past two block
// edges while another goroutine looks transactions up without a lock, then
// checks every lookup the engine makes of it.
func TestTxnTableAcrossBlocks(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	const n = 2*txnBlockLen + 5
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); !stop.Load(); seq = seq%n + 1 {
			id := wal.MakeTxnID(1, seq)
			if st := db.lookup(id); st != nil && st.id != id {
				t.Errorf("lookup(%v) returned %v", id, st.id)
				return
			}
		}
	}()
	ids := make([]wal.TxnID, 0, n)
	for i := 0; i < n; i++ {
		id, err := db.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if want := wal.MakeTxnID(1, uint64(i+1)); id != want {
			t.Fatalf("Begin #%d = %v, want %v", i+1, id, want)
		}
		ids = append(ids, id)
	}
	stop.Store(true)
	wg.Wait()
	other, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if s, ok := db.Status(id); !ok || s != TxnActive {
			t.Fatalf("Status(%v) = %v, %v", id, s, ok)
		}
	}
	for _, id := range []wal.TxnID{0, wal.MakeTxnID(1, 0), wal.MakeTxnID(1, n+1), wal.MakeTxnID(0, 2),
		wal.MakeTxnID(2, 1), wal.MakeTxnID(1, 1<<40), wal.TxnID(1<<63 | 1)} {
		if _, ok := db.Status(id); ok {
			t.Errorf("Status(%v) knows a transaction nobody began", id)
		}
		if _, err := db.Lock(id, lock.NameOfKey(1), lock.Shared); err == nil { // must not panic
			t.Errorf("Lock(%v) granted a lock to a transaction nobody began", id)
		}
		if held, queued := db.TxnLocks(id); len(held) != 0 || len(queued) != 0 {
			t.Errorf("TxnLocks(%v) = %v, %v", id, held, queued)
		}
	}
	if err := db.Abort(1, ids[0]); err != nil {
		t.Fatal(err)
	}
	want := append([]wal.TxnID{other}, ids[1:]...)
	if got := db.ActiveTxns(machine.NoNode); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ActiveTxns(all) = %d transactions starting %v, want %d in ascending TxnID order starting %v",
			len(got), got[:2], len(want), want[:2])
	}
	if got := db.ActiveTxns(0); len(got) != 1 || got[0] != other {
		t.Errorf("ActiveTxns(0) = %v", got)
	}
}

// TestSlotImageArena: arena images are byte-for-byte SlotImage's, never
// overlap, cannot grow into a neighbour, and cross chunk edges.
func TestSlotImageArena(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	layout := db.Store.Layout
	nc := &db.nodes[1]
	size := 1 + layout.RecordSize()
	count := 2*imgChunkBytes/size + 3 // past two chunk edges
	const workers = 4
	imgs := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < count/workers; i++ {
				imgs[w] = append(imgs[w], nc.slotImage(layout, byte(w), []byte{byte(i), byte(i >> 8)}))
			}
		}(w)
	}
	wg.Wait()
	for w := range imgs {
		for i, img := range imgs[w] {
			if want := SlotImage(layout, byte(w), []byte{byte(i), byte(i >> 8)}); !bytes.Equal(img, want) {
				t.Fatalf("worker %d image %d = %x, want %x (a neighbour overwrote it, or it was not zero-padded)", w, i, img, want)
			}
			if cap(img) != len(img) {
				t.Fatalf("image has capacity %d beyond its %d bytes: an append would write into its neighbour", cap(img), len(img))
			}
		}
	}
}

// TestDedupeWrites: each slot keeps its first write, in first-write order.
func TestDedupeWrites(t *testing.T) {
	r := func(p, s int) heap.RID { return heap.RID{Page: storage.PageID(p), Slot: uint16(s)} }
	st := &txnState{}
	st.writes = st.writeBuf[:0]
	for i, rid := range []heap.RID{r(1, 1), r(2, 2), r(1, 1), r(3, 3), r(2, 2), r(1, 1)} {
		st.writes = append(st.writes, writeRec{rid: rid, lsn: wal.LSN(i + 1)})
	}
	dedupeWrites(st)
	want := []writeRec{{rid: r(1, 1), lsn: 1}, {rid: r(2, 2), lsn: 2}, {rid: r(3, 3), lsn: 4}}
	if fmt.Sprint(st.writes) != fmt.Sprint(want) {
		t.Errorf("dedupeWrites = %v, want %v", st.writes, want)
	}
	dedupeWrites(st)
	if fmt.Sprint(st.writes) != fmt.Sprint(want) {
		t.Errorf("dedupeWrites is not idempotent: %v", st.writes)
	}
}

// privateTxn runs one transaction of four updates on node nd's own page,
// locking as the transaction layer would; Commit releases.
func privateTxn(db *DB, nd machine.NodeID, round int) error {
	id, err := db.Begin(nd)
	if err != nil {
		return err
	}
	for k := 0; k < 4; k++ {
		rid := heap.RID{Page: storage.PageID(nd) + 1, Slot: uint16(k)}
		if ok, err := db.Lock(id, lock.NameOfRID(rid), lock.Exclusive); err != nil || !ok {
			return fmt.Errorf("lock %v: granted=%v: %w", rid, ok, err)
		}
		if err := db.Update(nd, id, rid, []byte{byte(round), byte(k)}); err != nil {
			return err
		}
	}
	if err := db.Commit(nd, id); err != nil {
		return err
	}
	held, _ := db.TxnLocks(id)
	for _, h := range held {
		if _, still, err := db.Locks.Holds(nd, id, h.Name); err != nil || still {
			return fmt.Errorf("%v still holds %v after Commit (err %v)", id, h.Name, err)
		}
	}
	return nil
}

// TestLockOrderStripeBeforeNodeMutex asserts the order the node mutexes sit
// in: a goroutine holding a machine stripe may take a node mutex, so nobody
// holding a node mutex may call into the machine. A hook that runs under a
// stripe at every coherency transition takes every node mutex, while all
// four nodes run transactions, a reader walks every table, and a node
// crashes (Crash takes every stripe, then noteCrash the crashed node's
// mutex). A machine call under a node mutex would sooner or later wait for
// the stripe whose holder waits for that mutex; the test then times out.
func TestLockOrderStripeBeforeNodeMutex(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 4)
	var hookRuns atomic.Int64
	db.M.SetTransitionFault(func(machine.Event, int) []machine.NodeID {
		hookRuns.Add(1)
		for i := range db.nodes {
			db.nodes[i].mu.Lock()
			//lint:ignore SA2001 taking the mutex is the assertion
			db.nodes[i].mu.Unlock()
		}
		return nil
	})
	within(t, 60*time.Second, func() {
		var stop atomic.Bool
		var workers, reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for !stop.Load() {
				db.ActiveTxns(machine.NoNode)
				db.Stats()
				db.Branches(1)
				runtime.Gosched()
			}
		}()
		for n := 0; n < 4; n++ {
			workers.Add(1)
			go func(nd machine.NodeID) {
				defer workers.Done()
				for round := 0; round < 300; round++ {
					if err := privateTxn(db, nd, round); err != nil {
						if nd == 3 && (errors.Is(err, machine.ErrNodeDown) || errors.Is(err, machine.ErrLineLost)) {
							return // node 3 is the one that crashes
						}
						// The survivors keep running through the crash and
						// may trip over what it destroyed; that is not what
						// this test is about.
						if db.Frozen() {
							return
						}
						t.Errorf("node %d round %d: %v", nd, round, err)
						return
					}
					if nd == 0 && round == 100 {
						db.Crash(3)
					}
				}
			}(machine.NodeID(n))
		}
		workers.Wait()
		stop.Store(true)
		reader.Wait()
	})
	if hookRuns.Load() == 0 {
		t.Fatal("the under-stripe hook never ran: the test asserted nothing")
	}
	// eachTxn holds one node mutex at a time, in ascending node order.
	last := -1
	db.eachTxn(func(nc *nodeCtl, st *txnState) {
		nd := int(st.id.Node())
		if nd < last {
			t.Errorf("eachTxn visited node %d after node %d", nd, last)
		}
		last = nd
		for i := range db.nodes {
			if other := &db.nodes[i]; other != nc {
				if !other.mu.TryLock() {
					t.Errorf("eachTxn holds node %d's mutex while visiting node %d", i, nd)
					continue
				}
				other.mu.Unlock()
			}
		}
	})
}

// TestTriggerTakesNoDBMutex pins lbmTrigger's contract: it runs with a
// machine stripe held and takes no DB-level mutex. The trigger is wrapped so
// that it runs with db.mu and every node mutex already held — if it reached
// for any of them it would deadlock on the spot. Two nodes update
// neighbouring records of one cache line, so every update migrates the line
// and fires the trigger on the other node's log, while a third goroutine
// reads Stats() and Hooks(). The two workers start together and meet once per
// round between their first update and their commit: whichever of the two
// first updates came second pulled the line while the other's was unforced,
// so every round has a trigger run that forces — no schedule, one worker
// finishing before the other starts included, passes without one.
func TestTriggerTakesNoDBMutex(t *testing.T) {
	db := newNodeTestDB(t, StableTriggered, 3)
	db.AttachObserver(obs.NewWithCapacity(64))
	var fires atomic.Int64
	db.M.SetPreTransition(func(ev machine.Event) (int64, error) {
		db.mu.Lock()
		defer db.mu.Unlock()
		for i := range db.nodes {
			db.nodes[i].mu.Lock()
			defer db.nodes[i].mu.Unlock()
		}
		fires.Add(1)
		return db.lbmTrigger(ev)
	})
	const rounds, updatesPerTxn = 200, 4
	within(t, 60*time.Second, func() {
		var stop atomic.Bool
		var workers, reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for !stop.Load() {
				if db.Hooks().Observer == nil {
					t.Error("observer detached")
					return
				}
				db.Stats()
				runtime.Gosched()
			}
		}()
		start, meet, failed := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var failOnce sync.Once
		for n := 0; n < 2; n++ {
			workers.Add(1)
			go func(nd machine.NodeID) {
				defer workers.Done()
				rid := heap.RID{Page: 1, Slot: uint16(nd)} // same line, own slot
				<-start
				for round := 0; round < rounds; round++ {
					id, err := db.Begin(nd)
					for k := 0; k < updatesPerTxn && err == nil; k++ {
						err = db.Update(nd, id, rid, []byte{byte(round), byte(k)})
						if k == 0 && err == nil {
							// Both first updates are in, neither is forced.
							select {
							case meet <- struct{}{}:
							case <-meet:
							case <-failed:
								return
							}
						}
						runtime.Gosched() // interleave on one CPU too
					}
					if err == nil {
						err = db.Commit(nd, id)
					}
					if err != nil {
						t.Errorf("node %d round %d: %v", nd, round, err)
						failOnce.Do(func() { close(failed) })
						return
					}
				}
			}(machine.NodeID(n))
		}
		close(start)
		workers.Wait()
		stop.Store(true)
		reader.Wait()
	})
	st := db.Stats()
	if fires.Load() < rounds || st.LBMForces < rounds {
		t.Fatalf("trigger ran %d times, LBMForces = %d in %d rounds: a round went by without the two nodes pulling an active line from each other", fires.Load(), st.LBMForces, rounds)
	}
	if st.LBMForces > fires.Load() || st.Commits != 2*rounds || st.Updates != 2*rounds*updatesPerTxn {
		t.Errorf("Stats() = %+v after %d trigger runs and %d commits", st, fires.Load(), 2*rounds)
	}
}

// lockRow returns name's row of the lock table (zero if nobody holds or
// waits for it).
func lockRow(t *testing.T, db *DB, name lock.Name) lock.LockState {
	t.Helper()
	snap, err := db.Locks.Snapshot(db.M.AliveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range snap {
		if ls.Name == name {
			return ls
		}
	}
	return lock.LockState{}
}

// TestLockOwner: the engine owns a transaction's locks from request to
// release. Each case leaves a request in some state, has the driver walk
// away, and ends the transaction; afterwards no LCB row names it — found
// through its node-local state alone, no sweep of the lock table — and the
// lock goes to the next requester at once.
func TestLockOwner(t *testing.T) {
	name := lock.NameOfKey(7)
	want := func(t *testing.T, db *DB, id wal.TxnID, mode lock.Mode, granted bool) {
		t.Helper()
		if got, err := db.Lock(id, name, mode); err != nil || got != granted {
			t.Fatalf("Lock(%v, %v) = %v, %v; want granted=%v", id, mode, got, err, granted)
		}
	}
	cases := []struct {
		name string
		// prepare returns the transaction to end (its request in the state
		// the case is about) and whoever else is left to finish afterwards.
		prepare func(t *testing.T, db *DB) (ended wal.TxnID, others []wal.TxnID)
		end     func(db *DB, id wal.TxnID) error
	}{
		{
			// (a) A worker stopped while its request was queued used to leave
			// it in the LCB and in nobody's bookkeeping.
			name: "queued request, aborted",
			prepare: func(t *testing.T, db *DB) (wal.TxnID, []wal.TxnID) {
				holder, waiter := mustBegin(t, db, 0), mustBegin(t, db, 1)
				want(t, db, holder, lock.Exclusive, true)
				want(t, db, waiter, lock.Exclusive, false)
				if held, queued := db.TxnLocks(waiter); len(held) != 0 || !slices.Equal(queued, []LockEntry{{name, lock.Exclusive}}) {
					t.Fatalf("waiter records held %v, queued %v", held, queued)
				}
				return waiter, []wal.TxnID{holder}
			},
			end: func(db *DB, id wal.TxnID) error { return db.Abort(id.Node(), id) },
		},
		{
			name: "queued request, locks shed without finishing",
			prepare: func(t *testing.T, db *DB) (wal.TxnID, []wal.TxnID) {
				holder, waiter := mustBegin(t, db, 0), mustBegin(t, db, 1)
				want(t, db, holder, lock.Shared, true)
				want(t, db, waiter, lock.Exclusive, false)
				return waiter, []wal.TxnID{holder}
			},
			end: func(db *DB, id wal.TxnID) error { return db.ReleaseLocks(id) },
		},
		{
			// The driver gives up on a queued request and asks for something
			// else (and is granted it): both are the transaction's to end.
			name: "queued request the driver moved on from",
			prepare: func(t *testing.T, db *DB) (wal.TxnID, []wal.TxnID) {
				holder, waiter := mustBegin(t, db, 0), mustBegin(t, db, 1)
				want(t, db, holder, lock.Exclusive, true)
				want(t, db, waiter, lock.Shared, false)
				if ok, err := db.Lock(waiter, lock.NameOfKey(8), lock.Exclusive); err != nil || !ok {
					t.Fatalf("second request: %v, %v", ok, err)
				}
				if held, queued := db.TxnLocks(waiter); len(held) != 1 || !slices.Equal(queued, []LockEntry{{name, lock.Shared}}) {
					t.Fatalf("waiter records held %v, queued %v", held, queued)
				}
				return waiter, []wal.TxnID{holder}
			},
			end: func(db *DB, id wal.TxnID) error { return db.Abort(id.Node(), id) },
		},
		{
			// (b) The holder releases between the queueing and the
			// withdrawal: the request is a grant nobody polled for.
			name: "late grant",
			prepare: func(t *testing.T, db *DB) (wal.TxnID, []wal.TxnID) {
				holder, waiter := mustBegin(t, db, 0), mustBegin(t, db, 1)
				want(t, db, holder, lock.Exclusive, true)
				want(t, db, waiter, lock.Exclusive, false)
				if err := db.Commit(0, holder); err != nil {
					t.Fatal(err)
				}
				if m, held, err := db.Locks.Holds(1, waiter, name); err != nil || !held || m != lock.Exclusive {
					t.Fatalf("the holder's commit did not promote the waiter: %v, %v, %v", m, held, err)
				}
				if held, queued := db.TxnLocks(waiter); len(held) != 0 || len(queued) != 1 {
					t.Fatalf("waiter records held %v, queued %v before anyone told it", held, queued)
				}
				return waiter, nil
			},
			end: func(db *DB, id wal.TxnID) error { return db.Commit(id.Node(), id) },
		},
		{
			// (c) An upgrade waiting behind a co-holder keeps neither mode.
			name: "queued upgrade",
			prepare: func(t *testing.T, db *DB) (wal.TxnID, []wal.TxnID) {
				other, upgrader := mustBegin(t, db, 0), mustBegin(t, db, 1)
				want(t, db, other, lock.Shared, true)
				want(t, db, upgrader, lock.Shared, true)
				want(t, db, upgrader, lock.Exclusive, false)
				if held, queued := db.TxnLocks(upgrader); !slices.Equal(held, []LockEntry{{name, lock.Shared}}) || !slices.Equal(queued, []LockEntry{{name, lock.Exclusive}}) {
					t.Fatalf("upgrader records held %v, queued %v", held, queued)
				}
				return upgrader, []wal.TxnID{other}
			},
			end: func(db *DB, id wal.TxnID) error { return db.Abort(id.Node(), id) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
			ended, others := c.prepare(t, db)
			if err := c.end(db, ended); err != nil {
				t.Fatal(err)
			}
			row := lockRow(t, db, name)
			for _, e := range append(row.Holders, row.Waiters...) {
				if e.Txn == ended {
					t.Fatalf("%v ended but its row still names it: %+v", ended, row)
				}
			}
			if _, queued := db.TxnLocks(ended); len(queued) != 0 {
				t.Errorf("%v ended but still records %v queued", ended, queued)
			}
			if err := db.ReleaseLocks(ended); err != nil {
				t.Errorf("ending twice: %v", err)
			}
			for _, id := range others {
				if err := db.Commit(id.Node(), id); err != nil {
					t.Fatal(err)
				}
			}
			if row := lockRow(t, db, name); len(row.Holders)+len(row.Waiters) != 0 {
				t.Fatalf("everybody finished but the row is %+v", row)
			}
			next := mustBegin(t, db, 1)
			want(t, db, next, lock.Exclusive, true)
		})
	}
}

// TestLockOwnerDeadlockVictim: the victim's request is withdrawn where it was
// recorded, and what the victim already held stays its own until it aborts.
func TestLockOwnerDeadlockVictim(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	a, b := lock.NameOfKey(1), lock.NameOfKey(2)
	t1, _ := db.Begin(0)
	t2, _ := db.Begin(1)
	for _, step := range []struct {
		id      wal.TxnID
		name    lock.Name
		granted bool
		err     error
	}{{t1, a, true, nil}, {t2, b, true, nil}, {t1, b, false, nil}, {t2, a, false, ErrDeadlock}} {
		if got, err := db.Lock(step.id, step.name, lock.Exclusive); err != step.err || got != step.granted {
			t.Fatalf("Lock(%v, %v) = %v, %v; want %v, %v", step.id, step.name, got, err, step.granted, step.err)
		}
	}
	if held, queued := db.TxnLocks(t2); len(held) != 1 || held[0].Name != b || len(queued) != 0 {
		t.Fatalf("victim records held %v, queued %v; want b held and nothing queued", held, queued)
	}
	if row := lockRow(t, db, a); len(row.Waiters) != 0 {
		t.Fatalf("victim's request still queued: %+v", row)
	}
	if err := db.Abort(1, t2); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Lock(t1, b, lock.Exclusive); err != nil || !ok {
		t.Fatalf("survivor's poll after the victim's abort = %v, %v", ok, err)
	}
}

// TestLockReplayRegrantsHeldNotQueued is (d): restart recovery's lock replay
// re-grants what a surviving transaction holds and never a request it merely
// has queued — the log holds an acquire record for both, only the
// transaction's own state tells them apart.
func TestLockReplayRegrantsHeldNotQueued(t *testing.T) {
	for _, proto := range []Protocol{VolatileSelectiveRedo, VolatileRedoAll, StableEager} {
		t.Run(proto.String(), func(t *testing.T) {
			db := newNodeTestDB(t, proto, 2)
			a, b := lock.NameOfKey(1), lock.NameOfKey(2)
			s1, _ := db.Begin(1)
			s2, _ := db.Begin(1)
			for _, step := range []struct {
				id      wal.TxnID
				name    lock.Name
				granted bool
			}{{s1, a, true}, {s2, b, true}, {s1, b, false}} {
				if got, err := db.Lock(step.id, step.name, lock.Exclusive); err != nil || got != step.granted {
					t.Fatalf("Lock(%v, %v) = %v, %v; want %v", step.id, step.name, got, err, step.granted)
				}
			}
			// Node 0 queues behind both, which leaves both LCB lines cached
			// on node 0 alone: its crash destroys them.
			for _, name := range []lock.Name{a, b} {
				d, _ := db.Begin(0)
				if got, err := db.Lock(d, name, lock.Exclusive); err != nil || got {
					t.Fatalf("node 0's Lock(%v) = %v, %v", name, got, err)
				}
			}
			db.Crash(0)
			if db.Locks.LostLCBCount() == 0 {
				t.Fatal("choreography failed: the crash destroyed no LCB line")
			}
			if _, err := db.Recover([]machine.NodeID{0}); err != nil {
				t.Fatal(err)
			}
			for _, h := range []struct {
				id   wal.TxnID
				name lock.Name
			}{{s1, a}, {s2, b}} {
				if m, held, err := db.Locks.Holds(1, h.id, h.name); err != nil || !held || m != lock.Exclusive {
					t.Errorf("replay did not re-grant %v to %v: %v, %v, %v", h.name, h.id, m, held, err)
				}
			}
			if row := lockRow(t, db, b); len(row.Holders) != 1 || len(row.Waiters) != 0 {
				t.Fatalf("row of the queued request after replay = %+v; want s2 alone", row)
			}
			if v := db.CheckIFA(1); len(v) != 0 {
				t.Fatalf("IFA violations: %v", v)
			}
			// The waiter's next poll re-queues it, and it is granted in turn.
			if got, err := db.Lock(s1, b, lock.Exclusive); err != nil || got {
				t.Fatalf("s1's poll after recovery = %v, %v", got, err)
			}
			if err := db.Commit(1, s2); err != nil {
				t.Fatal(err)
			}
			if got, err := db.Lock(s1, b, lock.Exclusive); err != nil || !got {
				t.Fatalf("s1's poll after s2's commit = %v, %v", got, err)
			}
			if err := db.Commit(1, s1); err != nil {
				t.Fatal(err)
			}
			if snap, _ := db.Locks.Snapshot(1); len(snap) != 0 {
				t.Fatalf("lock table not empty at the end: %+v", snap)
			}
		})
	}
}
