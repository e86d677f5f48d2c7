package obs

import (
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 0; i < histBuckets; i++ {
		if got := BucketOf(bucketUpper(i)); got > i {
			t.Errorf("bucketUpper(%d) = %d lands in bucket %d", i, bucketUpper(i), got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("test_ns")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot: %+v", s)
	}
	if m := s.Mean(); m != 500 {
		t.Errorf("mean = %d, want 500", m)
	}
	// Log2 buckets are accurate to a factor-of-two band; interpolation
	// should land each quantile within its bucket's bounds.
	for _, c := range []struct {
		q      float64
		lo, hi int64
	}{{0.5, 256, 1000}, {0.95, 512, 1000}, {0.99, 512, 1000}} {
		got := s.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("q%.2f = %d, want in [%d, %d]", c.q, got, c.lo, c.hi)
		}
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 1000 {
		t.Errorf("extreme quantiles: q0=%d q1=%d", s.Quantile(0), s.Quantile(1))
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram("edge_ns")
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min != 0 {
		t.Errorf("empty histogram not zero-valued: %+v", s)
	}
	// Every quantile of an empty histogram is zero, including the extremes.
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Snapshot().Quantile(q); got != 0 {
			t.Errorf("empty q%.2f = %d", q, got)
		}
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 2 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Errorf("clamped observations: %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram("single_ns")
	h.Observe(777)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 777 || s.Max != 777 || s.Sum != 777 {
		t.Fatalf("snapshot: %+v", s)
	}
	// With one sample, every quantile collapses onto it: interpolation
	// inside the bucket must clamp to the observed [Min, Max].
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := s.Quantile(q); got != 777 {
			t.Errorf("q%.2f = %d, want 777", q, got)
		}
	}
	if s.Mean() != 777 {
		t.Errorf("mean = %d", s.Mean())
	}
}

func TestHistogramMergeDisjointRanges(t *testing.T) {
	// lo's samples live in the single-digit buckets, hi's five orders of
	// magnitude up — no bucket overlaps. The merge must preserve both modes
	// exactly: counts add, the min comes from lo, the max from hi, and the
	// extreme quantiles land in the respective modes.
	lo := NewHistogram("merge_ns")
	for v := int64(2); v <= 8; v++ {
		lo.Observe(v)
	}
	hi := NewHistogram("ignored")
	for v := int64(1 << 20); v < 1<<20+7; v++ {
		hi.Observe(v)
	}
	lo.Merge(hi.Snapshot())
	s := lo.Snapshot()
	if s.Count != 14 || s.Min != 2 || s.Max != 1<<20+6 {
		t.Fatalf("merged snapshot: %+v", s)
	}
	var want int64
	for v := int64(2); v <= 8; v++ {
		want += v
	}
	for v := int64(1 << 20); v < 1<<20+7; v++ {
		want += v
	}
	if s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	if q := s.Quantile(0.05); q < 2 || q > 8 {
		t.Errorf("q0.05 = %d, want in the low mode [2, 8]", q)
	}
	if q := s.Quantile(0.95); q < 1<<20 || q > 1<<20+6 {
		t.Errorf("q0.95 = %d, want in the high mode", q)
	}
	// Merging an empty snapshot is a no-op.
	before := s
	lo.Merge(NewHistogram("empty").Snapshot())
	if after := lo.Snapshot(); after != before {
		t.Errorf("empty merge changed state: %+v -> %+v", before, after)
	}
	// Merging into an empty histogram adopts the snapshot wholesale,
	// including Min (the empty side's zero Min must not win).
	fresh := NewHistogram("fresh_ns")
	fresh.Merge(s)
	if got := fresh.Snapshot(); got.Min != 2 || got.Count != 14 || got.Max != s.Max {
		t.Errorf("merge into empty: %+v", got)
	}
}

func TestRingWrap(t *testing.T) {
	o := NewWithCapacity(8)
	for i := 0; i < 20; i++ {
		o.Record(Event{Kind: KindMigrate, Node: 3, Sim: int64(i), Wall: 1})
	}
	evs := o.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// The 8 newest survive, in order.
	for i, e := range evs {
		if want := int64(12 + i); e.Sim != want {
			t.Errorf("event %d: sim %d, want %d", i, e.Sim, want)
		}
	}
	// The counter survives the wrap.
	if c := o.Count(KindMigrate); c != 20 {
		t.Errorf("count = %d, want 20", c)
	}
}

func TestTracksAreIndependent(t *testing.T) {
	o := NewWithCapacity(4)
	o.Instant(KindWALAppend, 0, 10, 1, 0)
	o.Instant(KindWALAppend, 1, 20, 2, 0)
	o.Span(KindPhase, PhaseUndo, SystemNode, 30, 5)
	evs := o.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	spans := o.PhaseSpans()
	if len(spans) != 1 || spans[0].Phase != PhaseUndo || spans[0].Start != 30 || spans[0].Dur != 5 {
		t.Errorf("phase spans: %+v", spans)
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	// Every hook must be callable on nil without panicking.
	o.Record(Event{Kind: KindCrash})
	o.Instant(KindMigrate, 0, 1, 2, 3)
	o.Span(KindPhase, PhaseFreeze, SystemNode, 0, 10)
	o.ObserveLineLock(5)
	o.ObserveCommit(5)
	o.ObserveLogForce(5)
	o.BeginProcess("x")
	if o.Enabled() {
		t.Error("nil observer reports enabled")
	}
	if o.Events() != nil || o.PhaseSpans() != nil || o.Histograms() != nil {
		t.Error("nil observer returned data")
	}
	if o.Count(KindCrash) != 0 {
		t.Error("nil observer counted")
	}
	if o.LineLockHist() != nil || o.CommitHist() != nil || o.LogForceHist() != nil {
		t.Error("nil observer returned histograms")
	}
	var b strings.Builder
	if err := o.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Errorf("nil trace export: %q", b.String())
	}
	if err := o.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := o.MetricsTable(&b); err != nil {
		t.Fatal(err)
	}
}

func TestFormatNS(t *testing.T) {
	cases := map[int64]string{
		7:          "7ns",
		1500:       "1.5µs",
		2500000:    "2.50ms",
		3000000000: "3.00s",
	}
	for ns, want := range cases {
		if got := FormatNS(ns); got != want {
			t.Errorf("FormatNS(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestFormatPhases(t *testing.T) {
	if got := FormatPhases(nil); got != "-" {
		t.Errorf("empty: %q", got)
	}
	spans := []PhaseSpan{
		{Phase: PhaseFreeze, Start: 0, Dur: 0},
		{Phase: PhaseRedoScan, Start: 0, Dur: 1500},
		{Phase: PhaseRedoApply, Start: 1500, Dur: 2500000},
	}
	got := FormatPhases(spans)
	if got != "redo-scan=1.5µs redo-apply=2.50ms" {
		t.Errorf("FormatPhases = %q", got)
	}
	if got := FormatPhases([]PhaseSpan{{Phase: PhaseSettle}}); got != "all=0ns" {
		t.Errorf("all-zero: %q", got)
	}
}

func TestBeginProcessGroups(t *testing.T) {
	o := New()
	o.Instant(KindTxnBegin, 0, 1, 1, 0)
	o.BeginProcess("second run")
	o.Instant(KindTxnBegin, 0, 2, 2, 0)
	evs := o.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].PID != 0 || evs[1].PID != 1 {
		t.Errorf("pids: %d, %d (want 0, 1)", evs[0].PID, evs[1].PID)
	}
}
