package waterfall

import (
	"reflect"
	"strings"
	"testing"

	"smdb/internal/obs"
)

// feedScenario drives a fixed, deterministic sequence of brackets and events: three
// transactions on two nodes — a committed one with a convoy line wait, an
// aborted one with undo time, and a fast committed one — plus a recovery
// progress run. Both the golden exports and the determinism tests reuse it.
func feedScenario(r *Recorder) {
	r.Begin(1, 0, 100)
	r.OpStart(1, 0, 100)
	r.OnEvent(obs.Event{Kind: obs.KindWALAppend, Node: 0, Sim: 120, A: 9, C: 1})
	r.AddWait(1, CauseLineWait, 120, 30, 7, 2)
	r.OnEvent(obs.Event{Kind: obs.KindPageFetch, Node: 0, Sim: 170, A: 3, B: 1, Dur: 20})
	r.OpEnd(1, 0, 180) // residue 80-50=30 compute
	r.End(1, 200, OutcomeCommitted)

	r.Begin(2, 1, 100)
	r.SpanStart(2, 1, 150, CauseUndo)
	r.AddWait(2, CauseLineWait, 160, 10, 7, 0)
	r.OpEnd(2, 1, 190) // residue 40-10=30 undo
	r.End(2, 190, OutcomeAborted)
	r.End(2, 195, OutcomeAborted) // double end no-ops

	r.Begin(3, 0, 150)
	r.OpStart(3, 0, 150)
	r.OpEnd(3, 0, 160)
	r.End(3, 170, OutcomeCommitted)

	p := r.Progress()
	p.Start(1)
	p.Attempt(1)
	p.Plan("redo-apply", 4)
	p.Note("redo-apply", 4, 64)
	p.PhaseDone("redo-apply", 500)
	p.End(true)
}

func TestWaterfallAttribution(t *testing.T) {
	r := New(Config{TopK: 2, WindowNS: 1000, SampleN: 1, Nodes: 2})
	feedScenario(r)

	if got := r.Completed(); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
	w := r.Lookup(1)
	if w == nil {
		t.Fatal("txn 1 not retained")
	}
	if w.Latency() != 100 {
		t.Fatalf("latency = %d, want 100", w.Latency())
	}
	want := map[Cause]int64{CauseCompute: 30, CauseLineWait: 30, CauseFetch: 20}
	for c, v := range want {
		if w.ByCause[c] != v {
			t.Errorf("ByCause[%v] = %d, want %d", c, w.ByCause[c], v)
		}
	}
	// The log-append marker is a zero-duration segment: present in the trace,
	// absent from the sums.
	if w.ByCause[CauseLogAppend] != 0 {
		t.Errorf("append marker added duration %d", w.ByCause[CauseLogAppend])
	}
	found := false
	for _, s := range w.Segments {
		if s.Cause == CauseLogAppend && s.Dur == 0 && s.Detail == 9 {
			found = true
		}
	}
	if !found {
		t.Error("append marker segment missing")
	}

	u := r.Lookup(2)
	if u == nil || u.ByCause[CauseUndo] != 30 {
		t.Fatalf("undo attribution = %+v", u)
	}
}

func TestCoverage(t *testing.T) {
	var nilR *Recorder
	if cov, _, _ := nilR.Coverage(); cov != 1 {
		t.Fatalf("nil coverage = %v, want 1", cov)
	}
	r := New(Config{SampleN: 1, Nodes: 2})
	feedScenario(r)
	cov, attr, total := r.Coverage()
	// txn1: 80/100 attributed; txn2: 40/90; txn3: 10/20.
	if total != 210 || attr != 130 {
		t.Fatalf("attr/total = %d/%d, want 130/210", attr, total)
	}
	if cov < 0.61 || cov > 0.62 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestCurrentTxnRegister(t *testing.T) {
	r := New(Config{Nodes: 2})
	r.Begin(5, 0, 0)
	r.OpStart(5, 0, 0)
	if got := r.CurrentTxn(0); got != 5 {
		t.Fatalf("CurrentTxn = %d, want 5", got)
	}
	// Nested bracket: the register survives the inner close.
	r.OpStart(5, 0, 10)
	r.OpEnd(5, 0, 20)
	if got := r.CurrentTxn(0); got != 5 {
		t.Fatalf("CurrentTxn after inner close = %d, want 5", got)
	}
	r.OpEnd(5, 0, 30)
	if got := r.CurrentTxn(0); got != 0 {
		t.Fatalf("CurrentTxn after outer close = %d, want 0", got)
	}
	// Out-of-range nodes never panic.
	r.OpStart(5, 99, 0)
	r.OpEnd(5, 99, 0)
	_ = r.CurrentTxn(99)
}

func TestHookGatingOutsideBracket(t *testing.T) {
	r := New(Config{Nodes: 2})
	r.Begin(1, 0, 0)
	// No bracket open: line/fetch hooks must not attribute (recovery traffic
	// on a node must never pollute a stalled survivor's waterfall).
	r.cur[0] = 1
	r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Node: 0, Sim: 100, A: 7, C: -1, Dur: 50})
	r.OnEvent(obs.Event{Kind: obs.KindPageFetch, Node: 0, Sim: 100, A: 3, B: 1, Dur: 50})
	r.End(1, 100, OutcomeCommitted)
	w := r.Lookup(1)
	if w != nil && (w.ByCause[CauseLineWait] != 0 || w.ByCause[CauseFetch] != 0) {
		t.Fatalf("hooks attributed outside a bracket: %+v", w.ByCause)
	}
}

func TestCrashNodeDropsLive(t *testing.T) {
	r := New(Config{Nodes: 2})
	r.Begin(1, 0, 0)
	r.Begin(2, 1, 0)
	r.OpStart(2, 1, 0)
	r.OnEvent(obs.Event{Kind: obs.KindCrash, Node: 1})
	if got := r.Live(); got != 1 {
		t.Fatalf("live = %d, want 1 (node 1's txn dropped)", got)
	}
	if got := r.CurrentTxn(1); got != 0 {
		t.Fatalf("crashed node's register = %d, want 0", got)
	}
	// Ending a dropped txn no-ops.
	r.End(2, 10, OutcomeCommitted)
	if got := r.Completed(); got != 0 {
		t.Fatalf("completed = %d, want 0", got)
	}
}

func TestTailSamplerDeterminism(t *testing.T) {
	slowIDs := func() []int64 {
		r := New(Config{TopK: 2, WindowNS: 1000, SampleN: 4, Nodes: 2})
		feedScenario(r)
		var ids []int64
		for _, w := range r.Slow(0) {
			ids = append(ids, w.Txn)
		}
		return ids
	}
	a, b := slowIDs(), slowIDs()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("sampler not deterministic: %v vs %v", a, b)
	}
}

func TestTopKTieBreak(t *testing.T) {
	r := New(Config{TopK: 2, WindowNS: 1_000_000, SampleN: 1 << 30, Nodes: 1})
	// Three completions with identical latency: the two lowest txn ids win.
	for _, id := range []int64{30, 10, 20} {
		r.Begin(id, 0, 0)
		r.End(id, 50, OutcomeCommitted)
	}
	var ids []int64
	for _, w := range r.Slow(0) {
		ids = append(ids, w.Txn)
	}
	if !reflect.DeepEqual(ids, []int64{10, 20}) {
		t.Fatalf("topK tie-break = %v, want [10 20]", ids)
	}
}

func TestExemplars(t *testing.T) {
	r := New(Config{TopK: 4, SampleN: 1, Nodes: 1})
	r.Begin(1, 0, 0)
	r.End(1, 100, OutcomeCommitted) // latency 100 -> bucket 7 (le 128)
	ex := r.Exemplars()
	ids, ok := ex[7]
	if !ok || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("exemplars = %v, want bucket 7 -> [1]", ex)
	}
}

func TestProgressJSON(t *testing.T) {
	r := New(Config{Nodes: 1})
	feedScenario(r)
	var b strings.Builder
	if err := r.Progress().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"enabled": true`, `"last_ok": true`, `"redo-apply"`, `"planned": 4`, `"records": 4`, `"sim_ns": 500`, `"rate_per_sec"`, `"eta_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("progress JSON missing %s:\n%s", want, out)
		}
	}
	var nilP *Progress
	b.Reset()
	if err := nilP.WriteJSON(&b); err != nil || b.String() != "{\"enabled\": false}\n" {
		t.Fatalf("nil progress JSON = %q, %v", b.String(), err)
	}
}

func TestSummary(t *testing.T) {
	var nilR *Recorder
	if nilR.Summary() != "waterfall disabled" {
		t.Fatal("nil summary")
	}
	r := New(Config{SampleN: 1, Nodes: 2})
	feedScenario(r)
	s := r.Summary()
	for _, want := range []string{"3 txns", "compute=", "line-wait=", "undo="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %s: %s", want, s)
		}
	}
}
