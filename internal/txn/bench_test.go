package txn_test

import (
	"runtime"
	"sync"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// privateBench is the forward-path fixture: a four-node database whose every
// node owns four pages of seeded records no other node touches.
type privateBench struct {
	db      *recovery.DB
	mgr     *txn.Manager
	private [][]heap.RID // by owning node
}

const privateNodes, privateOpsPerTxn = 4, 8

func newPrivateBench(tb testing.TB) *privateBench {
	const pagesPerNode = 4
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: privateNodes, Lines: 1 << 15},
		Protocol:       recovery.VolatileSelectiveRedo,
		LinesPerPage:   8,
		RecsPerLine:    4,
		Pages:          privateNodes * pagesPerNode,
		LockTableLines: 2048,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pb := &privateBench{db: db, mgr: txn.NewManager(db), private: make([][]heap.RID, privateNodes)}
	slots := db.Store.Layout.SlotsPerPage()
	for p := 0; p < privateNodes*pagesPerNode; p++ {
		tx, err := pb.mgr.Begin(0)
		if err != nil {
			tb.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(s)}
			if err := tx.Insert(rid, []byte{1, byte(p), byte(s)}); err != nil {
				tb.Fatal(err)
			}
			pb.private[p/pagesPerNode] = append(pb.private[p/pagesPerNode], rid)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Checkpoint(0); err != nil {
		tb.Fatal(err)
	}
	return pb
}

// commit runs node nd's i-th transaction: three reads and five writes on its
// own records, then commit.
func (pb *privateBench) commit(nd machine.NodeID, i int) error {
	rids := pb.private[nd]
	tx, err := pb.mgr.Begin(nd)
	if err != nil {
		return err
	}
	for op := 0; op < privateOpsPerTxn; op++ {
		rid := rids[(i*privateOpsPerTxn+op*7)%len(rids)]
		if op < 3 {
			_, err = tx.Read(rid)
		} else {
			err = tx.Write(rid, []byte{byte(i), byte(op)})
		}
		if err != nil {
			return err
		}
	}
	return tx.Commit()
}

// BenchmarkPrivateCommit commits 8-operation transactions (three reads, five
// writes) on records no other node touches: goroutine g drives node g, one
// goroutine per CPU up to the four nodes. Nothing on this path is shared
// between nodes by design, so run with -cpu 1,2,4 the ns/commit should hold
// and commits/s should grow with the width; a second client that adds no
// throughput means a shared line or lock is back on the path. The machine
// operations per commit are reported next to the time: a host-side change
// moves ns/op and leaves them alone.
//
// The commits run in rounds of privateRound, with the timer stopped for a
// quiescent checkpoint between them: it discards the logs, which would
// otherwise grow without bound and make zeroing fresh log blocks (page
// faults included) about 15 % of a one-CPU profile.
func BenchmarkPrivateCommit(b *testing.B) {
	pb := newPrivateBench(b)
	clients := min(runtime.GOMAXPROCS(0), privateNodes)
	next := make([]int, clients)       // each client's next transaction index
	var reads, writes, lineLocks int64 // machine operations of the timed rounds
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		round := min(privateRound, b.N-done)
		before := pb.db.M.Stats()
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			n := round / clients
			if g < round%clients {
				n++
			}
			wg.Add(1)
			go func(nd machine.NodeID, from, n int) {
				defer wg.Done()
				for i := from; i < from+n; i++ {
					if err := pb.commit(nd, i); err != nil {
						b.Error(err)
						return
					}
				}
			}(machine.NodeID(g), next[g], n)
			next[g] += n
		}
		wg.Wait()
		if b.Failed() {
			return
		}
		ops := pb.db.M.Stats().Sub(before)
		reads, writes, lineLocks = reads+ops.Reads, writes+ops.Writes, lineLocks+ops.LineLockAcquires
		if done += round; done < b.N {
			b.StopTimer()
			if err := pb.db.Checkpoint(0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(reads)/float64(b.N), "machine-reads/commit")
	b.ReportMetric(float64(writes)/float64(b.N), "machine-writes/commit")
	b.ReportMetric(float64(lineLocks)/float64(b.N), "linelocks/commit")
}

// privateRound is BenchmarkPrivateCommit's commits between checkpoints: a
// few log blocks per node.
const privateRound = 4096

// TestForwardPathAllocs holds the 8-operation private commit to at most 0.2
// allocations: the Txn, the engine's transaction state and the three read
// copies come from node-local slabs and arenas, so what is left is the
// amortized share of log blocks, log device chunks, Txn slabs, transaction
// table blocks and image arena chunks (about 0.12).
//
// It also pins what those commits count: a fixed run of private commits on
// one goroutine issues exactly the machine reads, writes, local hits and
// line-lock acquisitions below, so a step that stops counting, or counts
// twice, fails here whatever the host-side bookkeeping of the counters.
func TestForwardPathAllocs(t *testing.T) {
	pb := newPrivateBench(t)
	const counted = 64 // commits in the counted run: 31 line locks and writes each
	before := pb.db.M.Stats()
	for i := 0; i < counted; i++ {
		if err := pb.commit(1, i); err != nil {
			t.Fatal(err)
		}
	}
	d := pb.db.M.Stats().Sub(before)
	got := machine.Stats{Reads: d.Reads, Writes: d.Writes, LocalHits: d.LocalHits, LineLockAcquires: d.LineLockAcquires}
	want := machine.Stats{Reads: 1869, Writes: 1984, LocalHits: 3835, LineLockAcquires: 1984}
	if got != want {
		t.Errorf("%d private commits counted %+v, want %+v", counted, got, want)
	}

	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	// One run of perRun commits (after a warm-up run of as many): the slabs'
	// and blocks' amortized shares only show over many commits.
	const perRun = 1024
	i := counted
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < perRun; n++ {
			if err := pb.commit(1, i); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}) / perRun
	const bound = 0.2
	if allocs > bound {
		t.Errorf("a private commit allocates %.3f times, want <= %.1f", allocs, bound)
	}
	t.Logf("%.3f allocations per private commit", allocs)
}

// blockedWait sets up the common wait: node 0's transaction holds a record
// exclusively and goes on running, node 1's has queued a write behind it.
func blockedWait(tb testing.TB, pb *privateBench) (waiter *txn.Txn, rid heap.RID) {
	rid = pb.private[0][0]
	holder, err := pb.mgr.Begin(0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := holder.Write(rid, []byte{1}); err != nil {
		tb.Fatal(err)
	}
	if waiter, err = pb.mgr.Begin(1); err != nil {
		tb.Fatal(err)
	}
	if err := waiter.Write(rid, []byte{2}); err != txn.ErrBlocked {
		tb.Fatalf("the waiter's first attempt: %v, want ErrBlocked", err)
	}
	return waiter, rid
}

// TestBlockedPollAllocs holds a poll of a queued request whose holder is
// running — what a waiter repeats until the holder commits — to no allocation
// at all: the look's LCB is lent from the lock manager's scratch and the
// chase's work list is on the stack. (The polls stay within the spin budget:
// past it they would sleep.)
func TestBlockedPollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	waiter, rid := blockedWait(t, newPrivateBench(t))
	val := []byte{2}
	got := testing.AllocsPerRun(100, func() {
		if err := waiter.Write(rid, val); err != txn.ErrBlocked {
			t.Fatalf("poll: %v, want ErrBlocked", err)
		}
	})
	if got != 0 {
		t.Errorf("a blocked poll allocates %.0f times, want 0", got)
	}
}

// BenchmarkBlockedPoll times the engine's poll of a queued request behind a
// running holder (recovery.DB.Lock directly: the transaction layer would
// start sleeping between polls) on the 2 048-line lock table, 64 of whose
// LCBs have a holder and a waiter of their own: what the poll reads is its
// own LCB, not the table.
func BenchmarkBlockedPoll(b *testing.B) {
	pb := newPrivateBench(b)
	by, err := pb.mgr.Begin(2)
	if err != nil {
		b.Fatal(err)
	}
	queued, err := pb.mgr.Begin(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, rid := range pb.private[2][:64] {
		if err := by.Write(rid, []byte{3}); err != nil {
			b.Fatal(err)
		}
		if _, err := queued.Read(rid); err != txn.ErrBlocked {
			b.Fatalf("bystander's request: %v, want ErrBlocked", err)
		}
	}
	waiter, rid := blockedWait(b, pb)
	name := lock.NameOfRID(rid)
	before := pb.db.M.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if granted, err := pb.db.Lock(waiter.ID(), name, lock.Exclusive); err != nil || granted {
			b.Fatalf("poll: %v, %v; want queued", granted, err)
		}
	}
	ops := pb.db.M.Stats().Sub(before)
	b.ReportMetric(float64(ops.Reads)/float64(b.N), "machine-reads/poll")
	b.ReportMetric(float64(ops.LineLockAcquires)/float64(b.N), "linelocks/poll")
}
