package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
		db.NoteLock(id, lock.NameOfKey(1), lock.Shared) // must not panic
		if got := db.HeldLocks(id); len(got) != 0 {
			t.Errorf("HeldLocks(%v) = %v", id, got)
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

// TestDedupeWrites: slots keep first-write order, each keeps its newest
// version.
func TestDedupeWrites(t *testing.T) {
	r := func(p, s int) heap.RID { return heap.RID{Page: storage.PageID(p), Slot: uint16(s)} }
	st := &txnState{}
	st.writes = st.writeBuf[:0]
	for i, w := range []writeRec{
		{rid: r(1, 1), version: 10}, {rid: r(2, 2), version: 11}, {rid: r(1, 1), version: 12},
		{rid: r(3, 3), version: 13}, {rid: r(2, 2), version: 9}, {rid: r(1, 1), version: 14},
	} {
		w.lsn = wal.LSN(i + 1)
		st.writes = append(st.writes, w)
	}
	dedupeWrites(st)
	want := []writeRec{{rid: r(1, 1), version: 14, lsn: 6}, {rid: r(2, 2), version: 11, lsn: 2}, {rid: r(3, 3), version: 13, lsn: 4}}
	if fmt.Sprint(st.writes) != fmt.Sprint(want) {
		t.Errorf("dedupeWrites = %v, want %v", st.writes, want)
	}
	dedupeWrites(st)
	if fmt.Sprint(st.writes) != fmt.Sprint(want) {
		t.Errorf("dedupeWrites is not idempotent: %v", st.writes)
	}
}

// privateTxn runs one transaction of four updates on node nd's own page,
// with the lock bookkeeping the transaction layer would do.
func privateTxn(db *DB, nd machine.NodeID, round int) error {
	id, err := db.Begin(nd)
	if err != nil {
		return err
	}
	for k := 0; k < 4; k++ {
		rid := heap.RID{Page: storage.PageID(nd) + 1, Slot: uint16(k)}
		name := lock.NameOfRID(rid)
		if ok, err := db.Locks.Acquire(nd, id, name, lock.Exclusive); err != nil || !ok {
			return fmt.Errorf("acquire %v: granted=%v: %w", rid, ok, err)
		}
		db.NoteLock(id, name, lock.Exclusive)
		if err := db.Update(nd, id, rid, []byte{byte(round), byte(k)}); err != nil {
			return err
		}
	}
	if err := db.Commit(nd, id); err != nil {
		return err
	}
	for _, name := range db.HeldLocks(id) {
		if err := db.Locks.Release(nd, id, name); err != nil {
			return err
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
				db.CommittedImage(heap.RID{Page: 1})
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
// reads Stats() and Hooks().
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
		for n := 0; n < 2; n++ {
			workers.Add(1)
			go func(nd machine.NodeID) {
				defer workers.Done()
				rid := heap.RID{Page: 1, Slot: uint16(nd)} // same line, own slot
				for round := 0; round < rounds; round++ {
					id, err := db.Begin(nd)
					// Several updates before the commit force, so the other
					// node usually pulls the line while one is still unforced.
					for k := 0; k < updatesPerTxn && err == nil; k++ {
						err = db.Update(nd, id, rid, []byte{byte(round), byte(k)})
						runtime.Gosched() // interleave on one CPU too
					}
					if err == nil {
						err = db.Commit(nd, id)
					}
					if err != nil {
						t.Errorf("node %d round %d: %v", nd, round, err)
						return
					}
				}
			}(machine.NodeID(n))
		}
		workers.Wait()
		stop.Store(true)
		reader.Wait()
	})
	st := db.Stats()
	if fires.Load() == 0 || st.LBMForces == 0 {
		t.Fatalf("trigger ran %d times, LBMForces = %d: the two nodes never pulled an active line from each other", fires.Load(), st.LBMForces)
	}
	if st.LBMForces > fires.Load() || st.Commits != 2*rounds || st.Updates != 2*rounds*updatesPerTxn {
		t.Errorf("Stats() = %+v after %d trigger runs and %d commits", st, fires.Load(), 2*rounds)
	}
}
