package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// counts are what must repeat exactly for a seed on the recover-* workloads.
type counts struct {
	hash                                       uint64
	redoApplied, redoSkipped, undoApplied, ret int
}

func quickCounts(t *testing.T, name string, seed int64, trace bool) ([]counts, *passResult) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	pr, cycles, err := runPass(w, runOpts{seed: seed, quick: true, trace: trace, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Correct || pr.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d errors=%v", name, seed, pr.Correct, pr.Failed, pr.Errors)
	}
	var out []counts
	for _, c := range cycles {
		out = append(out, counts{c.hash, c.rep.RedoApplied, c.rep.RedoSkipped, c.rep.UndoApplied, c.retained})
	}
	return out, pr
}

// TestDeterminism: the same seed gives identical operation streams and
// identical recovery counts; another seed changes them; the backlog holds
// the 10^5 retained records the records/s unit needs.
func TestDeterminism(t *testing.T) {
	a, _ := quickCounts(t, "recover-selective", 1, false)
	b, _ := quickCounts(t, "recover-selective", 1, false)
	c, _ := quickCounts(t, "recover-selective", 2, false)
	if len(a) != 2 || len(b) != 2 || len(c) != 2 {
		t.Fatalf("quick mode ran %d/%d/%d cycles, want 2", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cycle %d: seed 1 gave %+v then %+v", i, a[i], b[i])
		}
		if a[i].hash == c[i].hash || a[i] == c[i] {
			t.Errorf("cycle %d: seeds 1 and 2 gave the same stream or counts: %+v", i, a[i])
		}
		if a[i].ret < minRetained {
			t.Errorf("cycle %d: %d WAL records retained, want >= %d", i, a[i].ret, minRetained)
		}
	}
	// Cycle r uses seed+r: seed 2's first cycle is seed 1's second.
	if a[1] != c[0] {
		t.Errorf("seed 1 cycle 1 = %+v, seed 2 cycle 0 = %+v, want equal", a[1], c[0])
	}
	r, _ := quickCounts(t, "recover-redoall", 1, false)
	for i := range r {
		if r[i].hash != a[i].hash {
			t.Errorf("cycle %d: redo-all and selective-redo backlogs differ for the same seed", i)
		}
		if r[i].ret < minRetained {
			t.Errorf("redo-all cycle %d: %d WAL records retained, want >= %d", i, r[i].ret, minRetained)
		}
	}
}

// TestTracedPass: the traced pass reports every per-layer metric, the
// budget's parts sum to one, and the phases cover Recover.
func TestTracedPass(t *testing.T) {
	_, pr := quickCounts(t, "fwd-contended", 1, true)
	for _, d := range perLayer {
		if _, ok := pr.Metrics[d.Name]; !ok {
			t.Errorf("traced pass lacks %s", d.Name)
		}
	}
	sum := pr.Metrics["txn.residue_frac"].Value
	for _, l := range []string{"lock", "wal", "machine", "buffer", "recovery"} {
		sum += pr.Metrics[l+".busy_frac"].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("busy fractions + residue = %v, want 1", sum)
	}
	if c := pr.Metrics["recovery.phase_coverage_frac"].Value; c < 0.9 {
		t.Errorf("phases cover %.3f of Recover, want >= 0.9", c)
	}
}

func TestUntracedPassReportsEveryMetric(t *testing.T) {
	_, pr := quickCounts(t, "fwd-stable", 1, false)
	for _, d := range endToEnd {
		if m, ok := pr.Metrics[d.Name]; !ok || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value", d.Name, m)
		}
	}
}

// TestRatios: a live engine that takes twice the reference engine's time on
// every cycle reads 2 on the timings and 1/2 on the rate, whatever the host's
// speed was in each cycle; counts are the live engine's own.
func TestRatios(t *testing.T) {
	mk := func(slow, host float64) *cycleResult {
		ns := func(base float64) int64 { return int64(base * slow * host) }
		lat := make([]int64, 100)
		for i := range lat {
			lat[i] = ns(float64(1000 * (i + 1)))
		}
		c := &cycleResult{setupNS: ns(2e7), fwdWallNS: ns(2e8), commits: 4400, lat: lat, fwdCPUNS: ns(3e8),
			recoverNS: ns(5e7), mttrNS: ns(6e7), recCPUNS: ns(5e7), fwdMallocs: 4400 * 250, recMallocs: 80000}
		c.counts.walBytes = 4400 * 1700
		return c
	}
	var cs, refs []*cycleResult
	for _, host := range []float64{1, 1.3, 0.8, 1.1, 2} {
		cs, refs = append(cs, mk(2, host)), append(refs, mk(1, host))
	}
	m, _, _ := reduceEndToEnd(cs, refs)
	want := map[string]float64{
		"setup_s": 2 * setupRefS, "commits_per_s_rel": 0.5, "txn_p50_rel": 2, "txn_p95_rel": 2, "cpu_per_commit_rel": 2,
		"recover_time_rel": 2, "mttr_rel": 2, "cpu_per_recover_rel": 2,
		"allocs_per_commit": 250, "log_bytes_per_commit": 1700, "allocs_per_recover": 80000,
	}
	for _, d := range endToEnd {
		if got := m[d.Name].Value; math.Abs(got-want[d.Name]) > 1e-6*want[d.Name] {
			t.Errorf("%s = %v, want %v", d.Name, got, want[d.Name])
		}
	}
}

func TestWatch(t *testing.T) {
	var progress atomic.Int64
	never := make(chan struct{})
	start := time.Now()
	if watch(&progress, never, 50*time.Millisecond, 5*time.Millisecond) {
		t.Error("watch reported completion of a round that never made progress")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("watch took %v to give up on a 50ms limit", d)
	}
	done := make(chan struct{})
	close(done)
	if !watch(&progress, done, time.Hour, time.Millisecond) {
		t.Error("watch reported a wedge on a finished round")
	}
}

func TestClientsRefused(t *testing.T) {
	w, _ := findWorkload("fwd-private")
	if _, err := clientCount(w, runOpts{clients: runtime.GOMAXPROCS(0) + 1}); err == nil {
		t.Error("clients > GOMAXPROCS accepted")
	}
	if n, err := clientCount(w, runOpts{}); err != nil || n < 1 || n > nodes || n > runtime.GOMAXPROCS(0) {
		t.Errorf("default clients = %d, %v", n, err)
	}
}

func TestCompare(t *testing.T) {
	mk := func(commits, failedFrac float64) *resultFile {
		return &resultFile{Passes: []*passResult{{
			Workload: "fwd-private", Correct: true, FailedFrac: failedFrac,
			Metrics: map[string]metricValue{
				"commits_per_s_rel": {Value: commits, Unit: "ratio", Better: "higher"},
				"txn_p50_rel":       {Value: 50, Unit: "ratio", Better: "lower"},
			},
		}}}
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "commits_per_s_rel" {
			bound = d.Bound
		}
	}
	if code := compareResults(mk(1000, 0), mk(1000*(1-bound/2), 0)); code != 0 {
		t.Errorf("commits/s worse by half its bound: exit %d, want 0", code)
	}
	if code := compareResults(mk(1000, 0), mk(1000*(1-bound-0.02), 0)); code != 1 {
		t.Errorf("commits/s worse by more than its bound: exit %d, want 1", code)
	}
	if code := compareResults(mk(1000, 0), mk(2000, 0)); code != 0 {
		t.Errorf("twice the commits/s: exit %d, want 0", code)
	}
	if code := compareResults(mk(1000, 0), mk(1000, 0.01)); code != 1 {
		t.Errorf("failed_frac +0.01: exit %d, want 1", code)
	}
	if code := compareResults(mk(1000, 0), &resultFile{}); code != 2 {
		t.Errorf("nothing in common: exit %d, want 2", code)
	}
}

// TestBenchmarkJSON: the contract file repeats this package's tables.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, default -seconds = %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded=%v)", kind, d.Name, g.Bound, d.Bound, bounded)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
