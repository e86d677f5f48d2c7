package machine

import (
	"sync"
	"testing"
	"unsafe"
)

// TestNodeBlockLayout pins what keeps a node's charges off every other
// node's cache lines: a block is a whole number of 64-byte lines, the clock
// has the first line to itself, and the blocks of a machine start on a line
// boundary.
func TestNodeBlockLayout(t *testing.T) {
	var b nodeBlock
	if sz := unsafe.Sizeof(b); sz%64 != 0 {
		t.Errorf("nodeBlock is %d bytes, not a multiple of 64", sz)
	}
	if off := unsafe.Offsetof(b.clock); off != 0 {
		t.Errorf("clock at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(b.stats); off != 64 {
		t.Errorf("stats at offset %d, want 64 (the clock alone on its line)", off)
	}
	if got, want := len(b.stats.counters()), int(unsafe.Sizeof(b.stats)/8); got != want {
		t.Errorf("counters() lists %d of the %d transition counters", got, want)
	}
	for _, nodes := range []int{1, 2, 4, 5, 64} {
		m := New(Config{Nodes: nodes, Lines: 8})
		if a := uintptr(unsafe.Pointer(&m.nodes[0])); a%64 != 0 {
			t.Errorf("%d nodes: first block at %#x, not on a 64-byte boundary", nodes, a)
		}
	}
}

// statsRig is a machine whose every node has a line of its own plus one line
// all of them share, each installed at its owner (the shared line at node 0).
type statsRig struct {
	m      *Machine
	base   LineID // node n's own line is base+n
	shared LineID
}

func newStatsRig(t *testing.T, nodes int) *statsRig {
	m := New(Config{Nodes: nodes, Lines: 64})
	r := &statsRig{m: m, base: m.Alloc(nodes), shared: m.Alloc(1)}
	for n := 0; n < nodes; n++ {
		if err := m.Install(NodeID(n), r.base+LineID(n), []byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Install(0, r.shared, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	return r
}

// round is one node's iteration: the stand-alone read, write, getline and
// releaseline on its own line, then, if shared, a section on the shared line
// that reads and writes it under the line lock. Every access is a local hit:
// the own line never leaves its owner, and the section's getline makes the
// shared line exclusive to the node before it reads or writes. So the own
// line's half counts exactly 1 read, 1 write, 2 local hits and 1 line-lock
// acquisition, and the shared half as much again, whatever the interleaving
// of the nodes.
func (r *statsRig) round(nd NodeID, shared bool) error {
	m, l := r.m, r.base+LineID(nd)
	var buf [1]byte
	if err := m.ReadInto(nd, l, 0, buf[:]); err != nil {
		return err
	}
	if err := m.Write(nd, l, 0, buf[:]); err != nil {
		return err
	}
	if err := m.GetLine(nd, l); err != nil {
		return err
	}
	if err := m.ReleaseLine(nd, l); err != nil {
		return err
	}
	if !shared {
		return nil
	}
	var sec Section
	if err := m.Enter(&sec, nd, r.shared); err != nil {
		return err
	}
	if err := sec.Read(0, buf[:]); err != nil {
		return err
	}
	if err := sec.Write(0, []byte{byte(nd)}); err != nil {
		return err
	}
	return sec.Leave()
}

// run drives every node from its own goroutine for ops rounds.
func (r *statsRig) run(t *testing.T, ops int, shared bool) {
	var wg sync.WaitGroup
	for n := 0; n < r.m.Nodes(); n++ {
		wg.Add(1)
		go func(nd NodeID) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := r.round(nd, shared); err != nil {
					t.Error(err)
					return
				}
			}
		}(NodeID(n))
	}
	wg.Wait()
}

// roundCounts is what ops rounds of each of nodes nodes count, with the
// shared line's half or without it.
func roundCounts(nodes, ops int, shared bool) Stats {
	n := int64(nodes * ops)
	if shared {
		n *= 2
	}
	return Stats{Reads: n, Writes: n, LocalHits: 2 * n, LineLockAcquires: n}
}

// hot is the part of s the stripes count.
func hot(s Stats) Stats {
	return Stats{Reads: s.Reads, Writes: s.Writes, LocalHits: s.LocalHits, LineLockAcquires: s.LineLockAcquires}
}

// TestShardedStats drives every node from its own goroutine, first on its
// own line alone and then also on one line all of them share, and checks
// that each node's clock carries exactly its own charge, that the stripes'
// counts and the per-node blocks sum exactly, that ResetStats zeroes every
// stripe and every block, and that Sub still subtracts field by field.
func TestShardedStats(t *testing.T) {
	const nodes, ops = 4, 2000
	r := newStatsRig(t, nodes)
	m := r.m
	var clocks [nodes]int64
	for n := range clocks {
		clocks[n] = m.Clock(NodeID(n))
	}
	before := m.Stats()
	r.run(t, ops, false)
	if got, want := hot(m.Stats().Sub(before)), roundCounts(nodes, ops, false); got != want {
		t.Errorf("own-line stats delta = %+v, want %+v", got, want)
	}
	// Every node ran the same operations on a line no other node touched, so
	// each clock gained the same charge, and only its own.
	charge := func(n int) int64 { return m.Clock(NodeID(n)) - clocks[n] }
	if charge(0) <= 0 {
		t.Errorf("node 0 charged %d for %d rounds, want a positive charge", charge(0), ops)
	}
	for n := 1; n < nodes; n++ {
		if got, want := charge(n), charge(0); got != want {
			t.Errorf("node %d charged %d, node 0 charged %d: same operations, different charge", n, got, want)
		}
	}
	r.run(t, ops, true)
	d := m.Stats().Sub(before)
	if got, want := hot(d), roundCounts(nodes, 3*ops, false); got != want {
		t.Errorf("stats delta = %+v, want %+v", got, want)
	}
	// The shared line moved between nodes: those are the only transitions,
	// counted in the node blocks.
	if d.Migrations == 0 || d.Migrations > nodes*ops || d.Installs != 0 || d.Invalidations != 0 {
		t.Errorf("transitions: %+v, want 1..%d migrations and nothing else", d, nodes*ops)
	}
	if d.LineLockContended > d.LineLockAcquires {
		t.Errorf("%d contended of %d acquisitions", d.LineLockContended, d.LineLockAcquires)
	}
	for n := 0; n < nodes; n++ {
		l := r.base + LineID(n)
		if got := m.stripeOf(l).counts; got != (stripeCounts{reads: 2 * ops, writes: 2 * ops, localHits: 4 * ops, lineLockAcquires: 2 * ops}) {
			t.Errorf("node %d's line's stripe counts %+v, want its own %d rounds", n, got, 2*ops)
		}
	}
	if got := m.stripeOf(r.shared).counts.reads; got != nodes*ops {
		t.Errorf("shared line's stripe counts %d reads, want %d", got, nodes*ops)
	}
	// Node 0 takes the shared line back, so node 3's crash loses its own line
	// alone.
	if err := m.GetLine(0, r.shared); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseLine(0, r.shared); err != nil {
		t.Fatal(err)
	}
	m.Crash(3)
	if s := m.Stats(); s.Crashes != 1 || s.LinesLost != 1 {
		t.Errorf("after Crash(3): Crashes=%d LinesLost=%d, want 1 and 1", s.Crashes, s.LinesLost)
	}
	m.ResetStats()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("after ResetStats: %+v", s)
	}
	for i := range m.stripes {
		if c := m.stripes[i].counts; c != (stripeCounts{}) {
			t.Errorf("ResetStats left stripe %d at %+v", i, c)
		}
	}
	m.eachBlock(func(b *transitions) {
		if *b != (transitions{}) {
			t.Errorf("ResetStats left a block at %+v", *b)
		}
	})
	if got := (Stats{Reads: 5, Crashes: 2}).Sub(Stats{Reads: 3, Crashes: 2}); got != (Stats{Reads: 2}) {
		t.Errorf("Sub = %+v", got)
	}
}

// TestStatsWhileSectionsRun reads, and in a second pass also resets, the
// counters while every node runs sections. Stats and ResetStats take the
// stripes one at a time, so they wait out an open section instead of racing
// it (go test -race is the judge); no snapshot counts more than was done,
// and without resets no snapshot runs backwards and the last one is exact.
func TestStatsWhileSectionsRun(t *testing.T) {
	const nodes, ops = 4, 500
	total := roundCounts(nodes, ops, true)
	within := func(a, b Stats) bool {
		return a.Reads <= b.Reads && a.Writes <= b.Writes && a.LocalHits <= b.LocalHits && a.LineLockAcquires <= b.LineLockAcquires
	}
	for _, reset := range []bool{false, true} {
		r := newStatsRig(t, nodes)
		m := r.m
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			var prev Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := hot(m.Stats())
				if !within(s, total) {
					t.Errorf("reset=%v: snapshot %+v exceeds the %+v done", reset, s, total)
				}
				if reset {
					m.ResetStats()
				} else if !within(prev, s) {
					t.Errorf("snapshot %+v after %+v: ran backwards", s, prev)
				}
				prev = s
			}
		}()
		r.run(t, ops, true)
		close(stop)
		<-done
		if s := hot(m.Stats()); !reset && s != total {
			t.Errorf("after the run: %+v, want %+v", s, total)
		}
		m.ResetStats()
		if s := m.Stats(); s != (Stats{}) {
			t.Errorf("reset=%v: after ResetStats: %+v", reset, s)
		}
	}
}

// TestStripeLayout pins what keeps one node's line operations off every
// other node's stripe mutexes: no two lines of the benchmark's machine
// (benchmark/spec.go: 4 096 lines) share a stripe, and each stripe is two
// 64-byte lines (its counts fit the padding) starting on a line boundary. It also holds
// New to its four allocations (the Machine with its stripes and conds, the
// lines, the node blocks, the hook set): a stripe's cond is embedded, not
// one object per stripe.
func TestStripeLayout(t *testing.T) {
	const benchmarkLines = 4096
	m := New(Config{Nodes: 4, Lines: benchmarkLines})
	seen := make(map[*stripe]LineID, benchmarkLines)
	for l := LineID(0); l < benchmarkLines; l++ {
		s := m.stripeOf(l)
		if o, ok := seen[s]; ok {
			t.Fatalf("lines %d and %d share a stripe", o, l)
		}
		seen[s] = l
	}
	if sz := unsafe.Sizeof(stripe{}); sz != 128 {
		t.Errorf("stripe is %d bytes, want two 64-byte lines", sz)
	}
	if a := uintptr(unsafe.Pointer(&m.stripes[0])); a%64 != 0 {
		t.Errorf("first stripe at %#x, not on a 64-byte boundary", a)
	}
	if got := testing.AllocsPerRun(50, func() { New(Config{Nodes: 4, Lines: benchmarkLines}) }); got > 4 {
		t.Errorf("New allocates %.0f objects, want <= 4", got)
	}
}
