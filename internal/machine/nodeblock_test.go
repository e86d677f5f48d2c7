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
		t.Errorf("counters() lists %d of the %d counters of Stats", got, want)
	}
	for _, nodes := range []int{1, 2, 4, 5, 64} {
		m := New(Config{Nodes: nodes, Lines: 8})
		if a := uintptr(unsafe.Pointer(&m.nodes[0])); a%64 != 0 {
			t.Errorf("%d nodes: first block at %#x, not on a 64-byte boundary", nodes, a)
		}
	}
}

// TestShardedStats drives every node from its own goroutine and checks that
// the per-node counter blocks sum exactly, that ResetStats zeroes every
// block, and that Sub still subtracts field by field.
func TestShardedStats(t *testing.T) {
	const nodes, ops = 4, 2000
	m := New(Config{Nodes: nodes, Lines: 64})
	base := m.Alloc(nodes)
	for n := 0; n < nodes; n++ {
		if err := m.Install(NodeID(n), base+LineID(n), []byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(nd NodeID) {
			defer wg.Done()
			l := base + LineID(nd)
			var buf [1]byte
			for i := 0; i < ops; i++ {
				if err := m.ReadInto(nd, l, 0, buf[:]); err != nil {
					t.Error(err)
					return
				}
				if err := m.Write(nd, l, 0, buf[:]); err != nil {
					t.Error(err)
					return
				}
				if err := m.GetLine(nd, l); err != nil {
					t.Error(err)
					return
				}
				if err := m.ReleaseLine(nd, l); err != nil {
					t.Error(err)
					return
				}
			}
		}(NodeID(n))
	}
	wg.Wait()
	d := m.Stats().Sub(before)
	want := Stats{Reads: nodes * ops, Writes: nodes * ops, LocalHits: 2 * nodes * ops, LineLockAcquires: nodes * ops}
	if d != want {
		t.Errorf("stats delta = %+v, want %+v", d, want)
	}
	for n := 0; n < nodes; n++ {
		if got := m.nodes[n].stats.Reads; got != ops {
			t.Errorf("node %d block counts %d reads, want its own %d", n, got, ops)
		}
		if got, want := m.Clock(NodeID(n)), m.Clock(0); got != want {
			t.Errorf("node %d clock %d, node 0 clock %d: same operations, different charge", n, got, want)
		}
	}
	m.Crash(3)
	if s := m.Stats(); s.Crashes != 1 || s.LinesLost != 1 {
		t.Errorf("after Crash(3): Crashes=%d LinesLost=%d, want 1 and 1", s.Crashes, s.LinesLost)
	}
	m.ResetStats()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("after ResetStats: %+v", s)
	}
	m.eachBlock(func(b *Stats) {
		if *b != (Stats{}) {
			t.Errorf("ResetStats left a block at %+v", *b)
		}
	})
	if got := (Stats{Reads: 5, Crashes: 2}).Sub(Stats{Reads: 3, Crashes: 2}); got != (Stats{Reads: 2}) {
		t.Errorf("Sub = %+v", got)
	}
}
