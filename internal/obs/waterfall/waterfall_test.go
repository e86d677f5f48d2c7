package waterfall

import (
	"reflect"
	"strings"
	"testing"

	"smdb/internal/obs"
)

// Event constructors: the transaction lifecycle, operation brackets and
// recovery progress, as the engine records them.
func begin(txn int64, node int32, sim int64) obs.Event {
	return obs.Event{Kind: obs.KindTxnBegin, Node: node, Sim: sim, A: txn}
}

func commit(txn int64, node int32, sim int64) obs.Event {
	return obs.Event{Kind: obs.KindTxnCommit, Node: node, Sim: sim, A: txn}
}

func abort(txn int64, node int32, sim int64) obs.Event {
	return obs.Event{Kind: obs.KindTxnAbort, Node: node, Sim: sim, A: txn}
}

func opStart(txn int64, node int32, sim int64, c obs.Cause) obs.Event {
	return obs.Event{Kind: obs.KindOpStart, Node: node, Sim: sim, A: txn, B: int64(c)}
}

func opEnd(txn int64, node int32, sim int64) obs.Event {
	return obs.Event{Kind: obs.KindOpEnd, Node: node, Sim: sim, A: txn}
}

func progress(p obs.Phase, a, b, c int64) obs.Event {
	return obs.Event{Kind: obs.KindProgress, Phase: p, Node: obs.SystemNode, A: a, B: b, C: c}
}

func feed(r *Recorder, events ...obs.Event) {
	for _, e := range events {
		r.OnEvent(e)
	}
}

// feedScenario drives a fixed, deterministic event sequence: three
// transactions on two nodes — a committed one with a convoy line wait behind
// the second, an aborted one with undo time, and a fast committed one — plus
// a recovery progress run. Both the golden exports and the determinism tests
// reuse it.
func feedScenario(r *Recorder) {
	feed(r,
		begin(1, 0, 100), opStart(1, 0, 100, obs.CauseCompute),
		begin(2, 1, 100), opStart(2, 1, 150, obs.CauseUndo),
		obs.Event{Kind: obs.KindWALAppend, Node: 0, Sim: 120, A: 9, C: 1},
		// Txn 1 waits 30 on line 7 held by node 1, where txn 2 is running.
		obs.Event{Kind: obs.KindLineLockWait, Node: 0, Sim: 150, A: 7, C: 1, Dur: 30},
		obs.Event{Kind: obs.KindPageFetch, Node: 0, Sim: 170, A: 3, B: 1, Dur: 20},
		opEnd(1, 0, 180), // residue 80-50=30 compute
		commit(1, 0, 200),

		obs.Event{Kind: obs.KindLineLockWait, Node: 1, Sim: 170, A: 7, C: -1, Dur: 10},
		opEnd(2, 1, 190), // residue 40-10=30 undo
		abort(2, 1, 190),
		abort(2, 1, 195), // double end no-ops

		begin(3, 0, 150), opStart(3, 0, 150, obs.CauseCompute), opEnd(3, 0, 160),
		commit(3, 0, 170),

		progress(obs.PhaseNone, 0, 1, 0),
		progress(obs.PhaseNone, 1, 0, 0),
		progress(obs.PhaseRedoApply, 4, 0, 1),
		progress(obs.PhaseRedoApply, 4, 64, 0),
		obs.Event{Kind: obs.KindPhase, Phase: obs.PhaseRedoApply, Node: obs.SystemNode, Dur: 500},
		obs.Event{Kind: obs.KindRecovery, Node: obs.SystemNode, C: 1},
	)
}

func TestWaterfallAttribution(t *testing.T) {
	r := New(Config{TopK: 2, Nodes: 2})
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
	want := map[obs.Cause]int64{obs.CauseCompute: 30, obs.CauseLineWait: 30, obs.CauseFetch: 20}
	for c, v := range want {
		if w.ByCause[c] != v {
			t.Errorf("ByCause[%v] = %d, want %d", c, w.ByCause[c], v)
		}
	}
	// The log-append marker is a zero-duration segment: present in the trace,
	// absent from the sums.
	if w.ByCause[obs.CauseLogAppend] != 0 {
		t.Errorf("append marker added duration %d", w.ByCause[obs.CauseLogAppend])
	}
	found := false
	for _, s := range w.Segments {
		if s.Cause == obs.CauseLogAppend && s.Dur == 0 && s.Detail == 9 {
			found = true
		}
	}
	if !found {
		t.Error("append marker segment missing")
	}

	if got := w.Segments[1]; got.Cause != obs.CauseLineWait || got.Holder != 2 || got.Start != 120 {
		t.Errorf("convoy segment = %+v, want a line wait from 120 behind txn 2", got)
	}

	u := r.Lookup(2)
	if u == nil || u.ByCause[obs.CauseUndo] != 30 {
		t.Fatalf("undo attribution = %+v", u)
	}
}

func TestCoverage(t *testing.T) {
	var nilR *Recorder
	if cov, _, _ := nilR.Coverage(); cov != 1 {
		t.Fatalf("nil coverage = %v, want 1", cov)
	}
	r := New(Config{Nodes: 2})
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

// A wait naming no transaction (an LBM trigger's force, charged to the
// acquiring node) is the node's current transaction's: the one with a
// bracket open there, nested brackets included, and nobody's once the
// outermost closes.
func TestCurrentTxnRegister(t *testing.T) {
	r := New(Config{Nodes: 2})
	nodeWait := func(sim int64) obs.Event {
		return obs.Event{Kind: obs.KindTxnWait, Node: 0, Sim: sim, Dur: 1, B: int64(obs.CauseLogForce)}
	}
	feed(r, begin(5, 0, 0), opStart(5, 0, 0, obs.CauseCompute), nodeWait(1),
		// Nested bracket: the register survives the inner close.
		opStart(5, 0, 10, obs.CauseCompute), opEnd(5, 0, 20), nodeWait(21),
		opEnd(5, 0, 30), nodeWait(31),
		// Out-of-range nodes never panic.
		opStart(5, 99, 40, obs.CauseCompute), opEnd(5, 99, 40),
		commit(5, 0, 50))
	w := r.Lookup(5)
	if w == nil || w.ByCause[obs.CauseLogForce] != 2 {
		t.Fatalf("log-force attribution = %+v, want the two waits inside the bracket", w)
	}
	if r.cur[0] != 0 {
		t.Fatalf("register after the outer close = %d, want 0", r.cur[0])
	}
}

func TestHookGatingOutsideBracket(t *testing.T) {
	r := New(Config{Nodes: 2})
	r.OnEvent(begin(1, 0, 0))
	// No bracket open: line/fetch hooks must not attribute (recovery traffic
	// on a node must never pollute a stalled survivor's waterfall).
	r.cur[0] = 1
	r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Node: 0, Sim: 100, A: 7, C: -1, Dur: 50})
	r.OnEvent(obs.Event{Kind: obs.KindPageFetch, Node: 0, Sim: 100, A: 3, B: 1, Dur: 50})
	r.OnEvent(commit(1, 0, 100))
	w := r.Lookup(1)
	if w != nil && (w.ByCause[obs.CauseLineWait] != 0 || w.ByCause[obs.CauseFetch] != 0) {
		t.Fatalf("hooks attributed outside a bracket: %+v", w.ByCause)
	}
}

func TestCrashNodeDropsLive(t *testing.T) {
	r := New(Config{Nodes: 2})
	feed(r, begin(1, 0, 0), begin(2, 1, 0), opStart(2, 1, 0, obs.CauseCompute),
		obs.Event{Kind: obs.KindCrash, Node: 1})
	if got := r.Live(); got != 1 {
		t.Fatalf("live = %d, want 1 (node 1's txn dropped)", got)
	}
	if got := r.cur[1]; got != 0 {
		t.Fatalf("crashed node's register = %d, want 0", got)
	}
	// Ending a dropped txn no-ops.
	r.OnEvent(commit(2, 1, 10))
	if got := r.Completed(); got != 0 {
		t.Fatalf("completed = %d, want 0", got)
	}
}

// A commit or abort closes a bracket still open at that instant, charging
// its residue there, and frees the node's register.
func TestEndClosesOpenBracket(t *testing.T) {
	r := New(Config{Nodes: 1})
	feed(r, begin(1, 0, 0), opStart(1, 0, 10, obs.CauseUndo), abort(1, 0, 40), opEnd(1, 0, 60))
	w := r.Lookup(1)
	if w == nil || w.ByCause[obs.CauseUndo] != 30 || len(w.Segments) != 1 {
		t.Fatalf("aborted waterfall = %+v, want one undo segment of 30", w)
	}
	if r.cur[0] != 0 {
		t.Fatalf("register after abort = %d, want 0", r.cur[0])
	}
}

func TestTailSamplerDeterminism(t *testing.T) {
	slowIDs := func() []int64 {
		r := New(Config{TopK: 2, Nodes: 2})
		r.sampleN = 4
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
	r := New(Config{TopK: 2, Nodes: 1})
	// Three completions with identical latency: the two lowest txn ids win.
	for _, id := range []int64{30, 10, 20} {
		feed(r, begin(id, 0, 0), commit(id, 0, 50))
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
	r := New(Config{TopK: 4, Nodes: 1})
	feed(r, begin(1, 0, 0), commit(1, 0, 100)) // latency 100 -> bucket 7 (le 128)
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
	r := New(Config{Nodes: 2})
	feedScenario(r)
	s := r.Summary()
	for _, want := range []string{"3 txns", "compute=", "line-wait=", "undo="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %s: %s", want, s)
		}
	}
}
