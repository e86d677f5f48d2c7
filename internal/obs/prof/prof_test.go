package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// feedProf builds a deterministic profile by calling the same hot-path
// methods the machine calls, with pinned nanosecond values.
func feedProf() *StripeProf {
	p := NewStripeProf(8)
	// Stripe 3: hot and contended. Stripe 5: busy but uncontended.
	for i := 0; i < 10; i++ {
		p.LockAcquired(3, i%2 == 0, 1000)
		p.LockHeld(3, 500)
	}
	for i := 0; i < 20; i++ {
		p.LockAcquired(5, false, 0)
		p.LockHeld(5, 100)
	}
	p.CondWait(3, 7000)
	p.Wakeup(3)
	p.Wakeup(5)
	return p
}

func TestStripeCountersAccumulate(t *testing.T) {
	p := feedProf()
	s := p.Snapshot()
	c3 := s.Stripes[3]
	if c3.Acquires != 10 || c3.Contended != 5 || c3.WaitNS != 5000 || c3.HoldNS != 5000 {
		t.Errorf("stripe 3 = %+v", c3)
	}
	if c3.CondWaits != 1 || c3.CondWaitNS != 7000 || c3.Wakeups != 1 {
		t.Errorf("stripe 3 condvar counters = %+v", c3)
	}
	if s.Active() != 2 {
		t.Errorf("active = %d, want 2", s.Active())
	}
	tot := s.Totals()
	if tot.Acquires != 30 || tot.Contended != 5 || tot.HoldNS != 7000 {
		t.Errorf("totals = %+v", tot)
	}

	top := s.TopContended(5)
	if len(top) != 2 || top[0].Stripe != 3 || top[1].Stripe != 5 {
		t.Errorf("TopContended = %+v", top)
	}
	// Delta across an idle interval is empty.
	d := p.Snapshot().Sub(s)
	if d.Totals().Acquires != 0 || d.Active() != 0 {
		t.Errorf("idle delta = %+v", d.Totals())
	}
}

func TestNilProfilerIsSafeAndFree(t *testing.T) {
	var sp *StripeProf
	if n := testing.AllocsPerRun(100, func() {
		sp.LockAcquired(1, true, 10)
		sp.LockHeld(1, 10)
		sp.CondWait(1, 10)
		sp.Wakeup(1)
	}); n != 0 {
		t.Errorf("nil profiler hot path allocates %.1f/op", n)
	}
	if s := sp.Snapshot(); len(s.Stripes) != 0 {
		t.Error("nil StripeProf snapshot not empty")
	}
	for name, fn := range map[string]func(*StripeProf, *bytes.Buffer) error{
		"stripes": func(p *StripeProf, b *bytes.Buffer) error { return p.WriteProfStripes(b) },
		"json":    func(p *StripeProf, b *bytes.Buffer) error { return p.WriteProfJSON(b) },
	} {
		var buf bytes.Buffer
		if err := fn(sp, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), `"enabled": false`) {
			t.Errorf("nil profiler %s = %q", name, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := sp.WriteProfProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil profiler prom = %q, %v", buf.String(), err)
	}
	if got := sp.Report(5); got != "profiler disabled\n" {
		t.Errorf("nil profiler report = %q", got)
	}
}

// Out-of-range stripe indices must be ignored, not panic: the machine sizes
// the profiler at attach time and the two can disagree in tests.
func TestStripeBoundsIgnored(t *testing.T) {
	p := NewStripeProf(4)
	p.LockAcquired(-1, true, 1)
	p.LockAcquired(4, true, 1)
	p.LockHeld(99, 1)
	p.CondWait(-5, 1)
	p.Wakeup(1000)
	if got := p.Snapshot().Totals().Acquires; got != 0 {
		t.Errorf("out-of-range ops counted: %+v", got)
	}
}

func TestWriteProfStripesJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := feedProf().WriteProfStripes(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Enabled      bool `json:"enabled"`
		Stripes      int  `json:"stripes"`
		Active       int  `json:"active"`
		Totals       StripeCounters
		TopContended []StripeCounters `json:"top_contended"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if !doc.Enabled || doc.Stripes != 8 || doc.Active != 2 {
		t.Errorf("doc = %+v", doc)
	}
	if len(doc.TopContended) != 2 || doc.TopContended[0].Stripe != 3 {
		t.Errorf("top = %+v", doc.TopContended)
	}
}

func TestWriteProfJSONCombined(t *testing.T) {
	var buf bytes.Buffer
	if err := feedProf().WriteProfJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"enabled": true`, `"stripes"`, `"top_contended"`} {
		if !strings.Contains(s, want) {
			t.Errorf("prof.json missing %s:\n%s", want, s)
		}
	}
}

func TestWriteProfProm(t *testing.T) {
	var buf bytes.Buffer
	if err := feedProf().WriteProfProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE smdb_prof_stripe_acquires_total counter",
		"smdb_prof_stripe_acquires_total 30",
		"smdb_prof_stripe_contended_total 5",
		"smdb_prof_stripe_wait_ns_total 5000",
		"smdb_prof_stripe_cond_wait_ns_total 7000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Every sample line must be Prometheus text exposition shaped.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// The text report is golden-tested inline: the data is hand-fed, so the
// rendering is byte-stable.
func TestReportGolden(t *testing.T) {
	got := feedProf().Report(5)
	want := `contention profile
top-5 contended stripes (of 8, 2 active):
  stripe  acquires  contended  wait   hold   cond-waits  cond-wait  wakeups
  3       10        5          5.0µs  5.0µs  1           7.0µs      1
  5       20        0          0ns    2.0µs  0           0ns        1
`
	if got != want {
		t.Errorf("report differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatNS(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{{999, "999ns"}, {1500, "1.5µs"}, {2_300_000, "2.3ms"}, {4_560_000_000, "4.56s"}} {
		if got := FormatNS(c.ns); got != c.want {
			t.Errorf("FormatNS(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// BenchmarkStripeProfHotPath measures the enabled profiler's per-acquire
// cost: a handful of atomic adds, no allocation.
func BenchmarkStripeProfHotPath(b *testing.B) {
	p := NewStripeProf(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.LockAcquired(i&127, false, 0)
		p.LockHeld(i&127, 10)
	}
}

// BenchmarkNilStripeProfHotPath is the disabled-profiler guard: the nil
// receiver path must stay allocation-free and branch-cheap.
func BenchmarkNilStripeProfHotPath(b *testing.B) {
	var p *StripeProf
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.LockAcquired(i&127, false, 0)
		p.LockHeld(i&127, 10)
	}
}
