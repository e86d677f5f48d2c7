package waterfall

import (
	"testing"

	"smdb/internal/obs"
)

// The recorder is compiled into every hot path unconditionally; when no
// -waterfall flag attached one, every hook runs against a nil *Recorder and
// must cost nothing: no allocation, a nil check and out.
// This is the guard the obs/audit layers carry too.
func TestNilSinkZeroAlloc(t *testing.T) {
	var r *Recorder
	cases := []struct {
		name string
		fn   func()
	}{
		{"OnEvent txn-begin", func() { r.OnEvent(begin(1, 0, 0)) }},
		{"OnEvent op-start", func() { r.OnEvent(opStart(1, 0, 0, obs.CauseUndo)) }},
		{"OnEvent op-end", func() { r.OnEvent(opEnd(1, 0, 0)) }},
		{"OnEvent txn-wait", func() { r.OnEvent(obs.Event{Kind: obs.KindTxnWait, A: 1, B: int64(obs.CauseLockWait), Dur: 5}) }},
		{"OnEvent line-wait", func() { r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: 10, A: 1, C: -1, Dur: 5}) }},
		{"OnEvent page-fetch", func() { r.OnEvent(obs.Event{Kind: obs.KindPageFetch, Sim: 10, A: 1, B: 1, Dur: 5}) }},
		{"OnEvent wal-append", func() { r.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: 10, A: 1, C: 1}) }},
		{"OnEvent txn-commit", func() { r.OnEvent(commit(1, 0, 10)) }},
		{"OnEvent crash", func() { r.OnEvent(obs.Event{Kind: obs.KindCrash}) }},
		{"OnEvent progress", func() { r.OnEvent(progress(obs.PhaseRedoApply, 1, 8, 0)) }},
		{"Totals", func() { _ = r.Totals() }},
		{"Coverage", func() { _, _, _ = r.Coverage() }},
		{"Completed", func() { _ = r.Completed() }},
		{"Live", func() { _ = r.Live() }},
		{"Progress", func() { _ = r.Progress() }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s on nil sink allocated %.1f bytes-worth/op, want 0", c.name, n)
		}
	}
}

// BenchmarkNilHooks times the disabled path of a full operation's hook
// sequence (the overhead every un-instrumented run pays).
func BenchmarkNilHooks(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.OnEvent(opStart(1, 0, int64(i), obs.CauseCompute))
		r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: int64(i), A: 1, C: -1, Dur: 5})
		r.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: int64(i), A: int64(i), C: 1})
		r.OnEvent(opEnd(1, 0, int64(i)))
	}
}

// BenchmarkEnabledTxn times one full transaction waterfall — begin, bracket,
// an attributed wait, residue close, end-and-sample — on the enabled path
// (the <10%-overhead acceptance number's microscopic view).
func BenchmarkEnabledTxn(b *testing.B) {
	r := New(Config{Nodes: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := int64(i + 1)
		sim := int64(i) * 20
		feed(r, begin(txn, 0, sim), opStart(txn, 0, sim, obs.CauseCompute),
			obs.Event{Kind: obs.KindTxnWait, Sim: sim, Dur: 5, A: txn, B: int64(obs.CauseLockWait), C: 1},
			opEnd(txn, 0, sim+15), commit(txn, 0, sim+15))
	}
}

// BenchmarkEnabledHotHook times the single hottest event (a line-lock wait,
// resolved through the node registers) inside an open bracket.
func BenchmarkEnabledHotHook(b *testing.B) {
	r := New(Config{Nodes: 4})
	feed(r, begin(1, 0, 0), opStart(1, 0, 0, obs.CauseCompute))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: int64(i), A: 1, C: 1, Dur: 1})
	}
}
