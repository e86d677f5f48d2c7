package machine

import (
	"runtime"
	"testing"

	"smdb/internal/obs/prof"
)

func profMachine(t testing.TB) (*Machine, *prof.StripeProf) {
	t.Helper()
	m := New(Config{Nodes: 4, Lines: 1024})
	base := m.Alloc(256)
	for l := base; l < base+256; l++ {
		if err := m.Install(0, l, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	p := prof.NewStripeProf(StripeCount)
	m.SetHooks(nil, p)
	return m, p
}

func TestProfilerCountsStripeActivity(t *testing.T) {
	m, p := profMachine(t)
	const l = LineID(7)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, l, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseLine(0, l); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	c := s.Stripes[int(l)&stripeMask]
	// GetLine + Write + ReleaseLine each take the stripe once; the Installs
	// in profMachine ran before the profiler attached and are not counted.
	if c.Acquires < 3 {
		t.Errorf("stripe %d acquires = %d, want >= 3", c.Stripe, c.Acquires)
	}
	if c.HoldNS <= 0 {
		t.Errorf("stripe %d holdNS = %d, want > 0", c.Stripe, c.HoldNS)
	}
	if c.Wakeups < 1 {
		t.Errorf("stripe %d wakeups = %d, want >= 1 (ReleaseLine broadcast)", c.Stripe, c.Wakeups)
	}
	if got := s.Totals().Acquires; got < 3 {
		t.Errorf("total acquires = %d", got)
	}
}

// TestProfilerCondWait drives a real blocked GetLine: once the waiter is
// observed contended it is parked inside the stripe's wait loop holding the
// stripe mutex, so the release cannot overtake it and a condvar sleep is
// guaranteed to be recorded.
func TestProfilerCondWait(t *testing.T) {
	m, p := profMachine(t)
	const l = LineID(3)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().LineLockContended
	done := make(chan error, 1)
	go func() {
		if err := m.GetLine(1, l); err != nil {
			done <- err
			return
		}
		done <- m.ReleaseLine(1, l)
	}()
	for m.Stats().LineLockContended == before {
		runtime.Gosched()
	}
	if err := m.ReleaseLine(0, l); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c := p.Snapshot().Stripes[int(l)&stripeMask]
	if c.CondWaits < 1 || c.CondWaitNS <= 0 {
		t.Errorf("cond waits = %d (%dns), want >= 1", c.CondWaits, c.CondWaitNS)
	}
	if c.Wakeups < 2 {
		t.Errorf("wakeups = %d, want >= 2 (two releases)", c.Wakeups)
	}
}

// TestProfilerDetachMidSection exercises attach/detach around open critical
// sections: the holdStart guard must keep unlockStripe correct whichever
// half of a section saw the profiler.
func TestProfilerDetachMidSection(t *testing.T) {
	m, p := profMachine(t)
	m.SetHooks(nil, nil)
	if err := m.Write(0, 1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	m.SetHooks(nil, p)
	if err := m.Write(0, 1, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := p.Snapshot().Totals().Acquires; got < 1 {
		t.Errorf("acquires after reattach = %d", got)
	}
}

// TestNilProfilerDoesNotAllocate is the disabled-profiler guard, matching
// the nil-observer guard in internal/obs: the machine hot paths must stay
// allocation-free with no profiler attached.
func TestNilProfilerDoesNotAllocate(t *testing.T) {
	m := New(Config{Nodes: 2, Lines: 256})
	l := m.Alloc(1)
	if err := m.Install(0, l, []byte{1}); err != nil {
		t.Fatal(err)
	}
	buf := []byte{42}
	if n := testing.AllocsPerRun(200, func() {
		if err := m.GetLine(0, l); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, l, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseLine(0, l); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("nil-profiler lock/write/release path allocates %.1f/op", n)
	}
}

// BenchmarkLineLockAcquireReleaseProfiled is the enabled-profiler
// counterpart of BenchmarkLineLockAcquireRelease: the delta between the two
// is the profiler's hot-path overhead (a TryLock, two monotonic clock
// reads, and a few atomic adds).
func BenchmarkLineLockAcquireReleaseProfiled(b *testing.B) {
	m, l := benchMachine(b, 4)
	m.SetHooks(nil, prof.NewStripeProf(StripeCount))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.GetLine(0, l); err != nil {
			b.Fatal(err)
		}
		if err := m.ReleaseLine(0, l); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProfilerIgnoresStatsReads: Stats and ResetStats take every stripe to
// read or zero its counts, but that is bookkeeping, not line traffic, so an
// attached profiler records none of it.
func TestProfilerIgnoresStatsReads(t *testing.T) {
	m, p := profMachine(t)
	m.Stats()
	m.ResetStats()
	if got := p.Snapshot().Totals(); got.Acquires != 0 || got.HoldNS != 0 {
		t.Errorf("after Stats and ResetStats the profiler counts %d acquires, %d ns held; want none", got.Acquires, got.HoldNS)
	}
}
