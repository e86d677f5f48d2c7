package lock

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// checkTable asserts the lock table's two standing invariants, reading every
// slot on behalf of node 0 (callers run it with no lock call in flight):
// at most one used LCB per name, and, along each name's probe sequence, every
// used LCB for the name before every tombstone carrying that name — the rule
// that lets a search for a name stop at its own freed slot.
func checkTable(t *testing.T, s *SMManager) {
	t.Helper()
	raw := make([]byte, s.M.LineSize())
	state := make([]byte, s.nline)
	names := make([]Name, s.nline)
	used := map[Name]int{}
	for i := 0; i < s.nline; i++ {
		if err := s.M.ReadInto(0, s.base+machine.LineID(i), 0, raw); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		state[i], names[i] = raw[lcbStateOff], rawName(raw)
		if state[i] == lcbUsed {
			if j, dup := used[names[i]]; dup {
				t.Errorf("name %#x has used LCBs at slots %d and %d", names[i], j, i)
			}
			used[names[i]] = i
		}
	}
	for name := range used {
		h := s.hashSlot(name)
		for probe := 0; probe < s.nline; probe++ {
			i := (h + probe) % s.nline
			if state[i] == lcbUsed && names[i] == name {
				break
			}
			if state[i] == lcbNamedTombstone && names[i] == name {
				t.Errorf("name %#x: tombstone with its name at slot %d comes before its used LCB at slot %d",
					name, i, used[name])
			}
		}
	}
}

// collidingNames returns n key names whose home slots in s's table are its
// first two.
func collidingNames(s *SMManager, n int) []Name {
	var out []Name
	for k := uint64(1); len(out) < n; k++ {
		if name := NameOfKey(k); s.hashSlot(name) < 2 {
			out = append(out, name)
		}
	}
	return out
}

// TestConcurrentExclusiveGrantsNeverOverlap drives an 8-line table with
// colliding names from four goroutines, one per node, each taking Exclusive
// locks, withdrawing the requests it finds queued and releasing what it
// holds. An atomic count per name of the goroutines that believe they hold it
// exclusively must never exceed one; at the end of every round each goroutine
// parks holding one lock, and checkTable runs on the quiescent table.
func TestConcurrentExclusiveGrantsNeverOverlap(t *testing.T) {
	const nodes, rounds, opsPerRound = 4, 60, 40
	s, _, _ := newSM(t, nodes, 8, LogAllLocks)
	names := collidingNames(s, 6)
	holding := make([]atomic.Int32, len(names))
	var overlaps atomic.Int64
	var seq [nodes]uint64

	// hold runs one exclusive request by node nd for names[k] to its end:
	// granted (at once or late) it is checked and, unless keep, released.
	hold := func(nd machine.NodeID, k int, keep bool) (bool, error) {
		seq[nd]++
		txn := wal.MakeTxnID(nd, seq[nd])
		g, err := s.Acquire(nd, txn, names[k], Exclusive)
		if err != nil {
			return false, err
		}
		if !g {
			held, err := s.WithdrawWait(nd, txn, names[k])
			if err != nil || held == 0 {
				return false, err
			}
		}
		if holding[k].Add(1) > 1 {
			overlaps.Add(1)
		}
		if keep {
			return true, nil
		}
		holding[k].Add(-1)
		return true, s.Release(nd, txn, names[k])
	}

	var wg sync.WaitGroup
	parked := make(chan struct{}, nodes)
	resume := make([]chan struct{}, nodes)
	errs := make(chan error, nodes)
	stop := make(chan struct{}) // closed when the test returns, releasing parked workers
	defer close(stop)
	for nd := 0; nd < nodes; nd++ {
		resume[nd] = make(chan struct{})
		wg.Add(1)
		go func(nd machine.NodeID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(nd) + 1))
			for r := 0; r < rounds; r++ {
				for i := 0; i < opsPerRound; i++ {
					if _, err := hold(nd, rng.Intn(len(names)), false); err != nil {
						errs <- err
						return
					}
				}
				// Park holding one lock (or none, if every try queued).
				var kept = -1
				for try := 0; try < 8 && kept < 0; try++ {
					k := rng.Intn(len(names))
					ok, err := hold(nd, k, true)
					if err != nil {
						errs <- err
						return
					}
					if ok {
						kept = k
					}
				}
				parked <- struct{}{}
				select {
				case <-resume[nd]:
				case <-stop:
					return
				}
				if kept >= 0 {
					holding[kept].Add(-1)
					if err := s.Release(nd, wal.MakeTxnID(nd, seq[nd]), names[kept]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(machine.NodeID(nd))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for r := 0; r < rounds; r++ {
		for i := 0; i < nodes; i++ {
			select {
			case <-parked:
			case err := <-errs:
				t.Fatal(err)
			case <-done:
				t.Fatal("a goroutine ended early")
			}
		}
		checkTable(t, s)
		if t.Failed() {
			t.FailNow()
		}
		for _, c := range resume {
			c <- struct{}{}
		}
	}
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d overlapping exclusive grants", n)
	}
}

// benchRecordNames is the benchmark's record space as lock names: 64 pages
// of 28 slots.
func benchRecordNames() []Name {
	names := make([]Name, 0, 64*28)
	for p := 0; p < 64; p++ {
		for sl := 0; sl < 28; sl++ {
			names = append(names, NameOfRID(heap.RID{Page: storage.PageID(p), Slot: uint16(sl)}))
		}
	}
	return names
}

// ageTable runs txns transactions on node 0, each acquiring eight distinct
// random names Exclusive and then releasing them, and calls window after
// every per transactions with the mean probes per Acquire over them.
func ageTable(tb testing.TB, s *SMManager, names []Name, rng *rand.Rand, txns, per int, window func(mean float64)) {
	tb.Helper()
	var held [8]Name
	var probes, acquires int64
	for i := 1; i <= txns; i++ {
		txn := wal.MakeTxnID(0, uint64(i))
		for k := range held {
		draw:
			held[k] = names[rng.Intn(len(names))]
			for _, prev := range held[:k] {
				if prev == held[k] {
					goto draw
				}
			}
			p0 := s.Stats().Probes
			if g, err := s.Acquire(0, txn, held[k], Exclusive); err != nil || !g {
				tb.Fatalf("Acquire = %v, %v", g, err)
			}
			probes += s.Stats().Probes - p0
			acquires++
		}
		for _, n := range held {
			if err := s.Release(0, txn, n); err != nil {
				tb.Fatal(err)
			}
		}
		if i%per == 0 {
			window(float64(probes) / float64(acquires))
			probes, acquires = 0, 0
		}
	}
}

// TestProbesPerAcquireStayFlat: on the benchmark's table (2 048 lines) and
// record names, probe chains stop growing as the table ages. A release leaves
// a tombstone carrying the LCB's name and a search for that name ends there,
// so a name's chain is bounded by its own last slot; with anonymous
// tombstones every absent name probed to an empty slot, which grew scarcer
// with every insert (3.9 probes per Acquire in the second window, 4.1 and
// still climbing in the sixth).
func TestProbesPerAcquireStayFlat(t *testing.T) {
	s, _, _ := newSM(t, 1, 2048, LogNoLocks)
	var means []float64
	ageTable(t, s, benchRecordNames(), rand.New(rand.NewSource(1)), 12000, 2000, func(m float64) {
		means = append(means, m)
	})
	t.Logf("probes per Acquire by window of 2 000 transactions: %.2f", means)
	last := means[len(means)-1]
	if last > 2.3 || last > 1.1*means[1] {
		t.Errorf("last window %.2f probes per Acquire, second %.2f: want <= 2.3 and <= 1.1x the second", last, means[1])
	}
}

// TestHomeHoldSerializesInserts races goroutines on different nodes for one
// name x whose home slot h holds something that is not decisive for x, so
// every insert of x searches past h: another name's LCB, an anonymous
// tombstone (set again before every round), or, in a chained table, an
// overflow line of another name's LCB, which that LCB's holder rewrites under
// the line's own lock while the race runs. Eight more names with home h fill
// the slots after it, and a goroutine on a fourth node keeps releasing and
// taking them again, so the first free slot past h moves while the racers
// search; every line-lock grant yields the processor. Each racer takes x
// Exclusive, or withdraws its request if it queued; an atomic count of the
// racers that believe they hold x must never exceed one, a release must find
// what its racer holds, and after every round checkTable (at most one used
// LCB per name) runs on the quiescent table.
func TestHomeHoldSerializesInserts(t *testing.T) {
	for _, home := range []string{"foreign-lcb", "anonymous-tombstone", "overflow"} {
		t.Run(home, func(t *testing.T) {
			const nodes, racers, rounds, fillers = 4, 3, 200, 8
			s, _, m := newSM(t, nodes, 32, LogNoLocks)
			s.Chained = home == "overflow"
			// Every line-lock grant yields the processor, so the racers'
			// searches interleave at every step they could.
			m.SetSchedNote(func(machine.NodeID, string, machine.LineID) { runtime.Gosched() })
			churnNode := machine.NodeID(nodes - 1)
			var churnSeq uint64
			take := func(nd machine.NodeID, n Name, mode Mode) (wal.TxnID, error) {
				churnSeq++
				txn := wal.MakeTxnID(nd, 1<<40+churnSeq)
				if g, err := s.Acquire(nd, txn, n, mode); err != nil || !g {
					return txn, fmt.Errorf("Acquire(%#x) = %v, %v", n, g, err)
				}
				return txn, nil
			}
			first := NameOfKey(1)
			h := s.hashSlot(first)
			if home == "overflow" {
				// first's LCB overflows into the lowest free slot; that is h.
				for i := 0; i <= s.entryCap(); i++ {
					if _, err := take(churnNode, first, Shared); err != nil {
						t.Fatal(err)
					}
				}
				sc := s.getScratch()
				if err := s.loadChain(0, h, sc, false); err != nil || len(sc.slots) != 2 {
					t.Fatalf("first's chain: slots %v, %v", sc.slots, err)
				}
				h = sc.slots[1]
				s.scratch.Put(sc)
			} else if _, err := take(churnNode, first, Exclusive); err != nil {
				t.Fatal(err)
			}
			var x Name
			var fill []Name
			held := map[Name]wal.TxnID{}
			for k := uint64(2); len(fill) < fillers; k++ {
				n := NameOfKey(k)
				switch {
				case s.hashSlot(n) != h:
				case x == 0:
					x = n
				default:
					txn, err := take(churnNode, n, Exclusive)
					if err != nil {
						t.Fatal(err)
					}
					fill, held[n] = append(fill, n), txn
				}
			}
			reset := func() error { return nil }
			if home == "anonymous-tombstone" {
				if err := s.Release(churnNode, wal.MakeTxnID(churnNode, 1<<40+1), first); err != nil {
					t.Fatal(err)
				}
				// A filler the churn took again may sit at h; otherwise h goes
				// back to an anonymous tombstone.
				raw := make([]byte, m.LineSize())
				reset = func() error {
					if err := m.ReadInto(0, s.slotLine(h), 0, raw); err != nil || !rawFree(raw) {
						return err
					}
					encodeLCB(raw, &lcb{state: lcbTombstone, next: -1})
					return m.Write(0, s.slotLine(h), 0, raw)
				}
			}
			// churn releases filler i and takes it again; in the overflow case
			// it also adds and removes one holder of first four times, each
			// rewriting h.
			churn := func(i int) error {
				n := fill[i%fillers]
				if err := s.Release(churnNode, held[n], n); err != nil {
					return err
				}
				txn, err := take(churnNode, n, Exclusive)
				if err != nil {
					return err
				}
				held[n] = txn
				for k := 0; k < 4 && home == "overflow"; k++ {
					if txn, err = take(churnNode, first, Shared); err != nil {
						return err
					}
					if err = s.Release(churnNode, txn, first); err != nil {
						return err
					}
				}
				return nil
			}

			var holding, overlaps atomic.Int32
			var seq [nodes]uint64
			race := func(nd machine.NodeID) error {
				seq[nd]++
				txn := wal.MakeTxnID(nd, seq[nd])
				g, err := s.Acquire(nd, txn, x, Exclusive)
				if err != nil {
					return err
				}
				if !g {
					if held, err := s.WithdrawWait(nd, txn, x); err != nil || held == 0 {
						return err
					}
				}
				if holding.Add(1) > 1 {
					overlaps.Add(1)
				}
				time.Sleep(20 * time.Microsecond) // hold it while the others try
				holding.Add(-1)
				return s.Release(nd, txn, x)
			}
			for r := 0; r < rounds; r++ {
				if err := reset(); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, racers+1)
				start := make(chan struct{})
				for nd := 0; nd < racers; nd++ {
					wg.Add(1)
					go func(nd machine.NodeID) {
						defer wg.Done()
						<-start
						for i := 0; i < 4; i++ {
							if err := race(nd); err != nil {
								errs <- fmt.Errorf("node %d: %w", nd, err)
								return
							}
						}
					}(machine.NodeID(nd))
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < fillers; i++ {
						if err := churn(r + i); err != nil {
							errs <- fmt.Errorf("churn: %w", err)
							return
						}
					}
				}()
				close(start)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("round %d: %v", r, err)
				}
				checkTable(t, s)
				if t.Failed() {
					t.FailNow()
				}
			}
			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d overlapping exclusive grants of x", n)
			}
		})
	}
}
