package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenObserver builds a small deterministic trace: a few instants on two
// node tracks, then a recovery span enclosing three phase spans. Wall clocks
// are pinned so the export is byte-stable.
func goldenObserver() *Observer {
	o := NewWithCapacity(64)
	w := int64(1)
	rec := func(e Event) {
		e.Wall = w
		w++
		o.Record(e)
	}
	rec(Event{Kind: KindTxnBegin, Node: 0, Sim: 100, A: 1})
	rec(Event{Kind: KindWALAppend, Node: 0, Sim: 220, A: 7, B: 2, C: 1})
	rec(Event{Kind: KindMigrate, Node: 1, Sim: 340, A: 12})
	// A dependency edge echoed by the deps tracker: txn 1 (home node 0) now
	// has uncommitted data on line 12 in node 1's cache (B = to<<32|line).
	rec(Event{Kind: KindDepEdge, Node: 0, Sim: 360, A: 1, B: 1<<32 | 12})
	rec(Event{Kind: KindCrash, Node: 1, Sim: 500, A: 4, B: 2})
	rec(Event{Kind: KindPhase, Phase: PhaseDirectoryRepair, Node: SystemNode, Sim: 1000, Dur: 400})
	rec(Event{Kind: KindPhase, Phase: PhaseLockRebuild, Node: SystemNode, Sim: 1400, Dur: 300})
	rec(Event{Kind: KindPhase, Phase: PhaseRedoApply, Node: SystemNode, Sim: 1700, Dur: 800})
	rec(Event{Kind: KindRecovery, Node: SystemNode, Sim: 1000, Dur: 1500})
	o.ObserveLineLock(90)
	o.ObserveCommit(1200)
	o.ObserveLogForce(800000)
	return o
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenObserver().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", buf.String())
	}
	checkPhaseNesting(t, buf.Bytes())

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			buf.String(), string(want))
	}
}

// checkPhaseNesting asserts that every phase span lies inside a recovery
// span of the same trace process — the containment Perfetto renders as
// nesting.
func checkPhaseNesting(t *testing.T, traceJSON []byte) {
	t.Helper()
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int32   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &tr); err != nil {
		t.Fatal(err)
	}
	type span struct{ ts, end float64 }
	recoveries := map[int32][]span{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Name == "recovery" {
			recoveries[e.PID] = append(recoveries[e.PID], span{e.Ts, e.Ts + e.Dur})
		}
	}
	phases := 0
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Name == "recovery" {
			continue
		}
		phases++
		nested := false
		for _, r := range recoveries[e.PID] {
			if r.ts <= e.Ts && e.Ts+e.Dur <= r.end {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("phase span %q at ts=%v dur=%v (pid %d) not nested in any recovery span",
				e.Name, e.Ts, e.Dur, e.PID)
		}
	}
	if phases == 0 {
		t.Error("trace contains no phase spans")
	}
}

func TestPrometheusExport(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenObserver().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`smdb_events_total{kind="crash"} 1`,
		`smdb_events_total{kind="phase"} 3`,
		`smdb_events_total{kind="recovery"} 1`,
		`smdb_events_total{kind="deadlock"} 0`,
		"# TYPE smdb_line_lock_latency_ns histogram",
		`smdb_line_lock_latency_ns_bucket{le="+Inf"} 1`,
		"smdb_txn_commit_latency_ns_sum 1200",
		"smdb_log_force_latency_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsTable(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenObserver().MetricsTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"wal-append", "crash", "line_lock_latency", "txn_commit_latency", "800.0µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
}
