package waterfall

import (
	"testing"

	"smdb/internal/obs"
)

// The recorder is compiled into every hot path unconditionally; when no
// -waterfall flag attached one, every hook runs against a nil *Recorder (or
// nil *Progress) and must cost nothing: no allocation, a nil check and out.
// This is the guard the obs/audit/prof layers carry too.
func TestNilSinkZeroAlloc(t *testing.T) {
	var r *Recorder
	var p *Progress
	cases := []struct {
		name string
		fn   func()
	}{
		{"Begin", func() { r.Begin(1, 0, 0) }},
		{"OpStart", func() { r.OpStart(1, 0, 0) }},
		{"SpanStart", func() { r.SpanStart(1, 0, 0, CauseUndo) }},
		{"OpEnd", func() { r.OpEnd(1, 0, 0) }},
		{"CurrentTxn", func() { _ = r.CurrentTxn(0) }},
		{"AddWait", func() { r.AddWait(1, CauseLockWait, 0, 5, 0, 0) }},
		{"OnEvent line-wait", func() { r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: 10, A: 1, C: -1, Dur: 5}) }},
		{"OnEvent page-fetch", func() { r.OnEvent(obs.Event{Kind: obs.KindPageFetch, Sim: 10, A: 1, B: 1, Dur: 5}) }},
		{"OnEvent wal-append", func() { r.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: 10, A: 1, C: 1}) }},
		{"End", func() { r.End(1, 10, OutcomeCommitted) }},
		{"OnEvent crash", func() { r.OnEvent(obs.Event{Kind: obs.KindCrash}) }},
		{"Totals", func() { _ = r.Totals() }},
		{"Coverage", func() { _, _, _ = r.Coverage() }},
		{"Completed", func() { _ = r.Completed() }},
		{"Live", func() { _ = r.Live() }},
		{"Progress", func() { _ = r.Progress() }},
		{"Progress.Start", func() { p.Start(1) }},
		{"Progress.Attempt", func() { p.Attempt(1) }},
		{"Progress.Note", func() { p.Note("redo-apply", 1, 8) }},
		{"Progress.Plan", func() { p.Plan("probe", 4) }},
		{"Progress.PhaseDone", func() { p.PhaseDone("undo", 10) }},
		{"Progress.End", func() { p.End(true) }},
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
		r.OpStart(1, 0, int64(i))
		r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: int64(i), A: 1, C: -1, Dur: 5})
		r.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: int64(i), A: int64(i), C: 1})
		r.OpEnd(1, 0, int64(i))
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
		r.Begin(txn, 0, sim)
		r.OpStart(txn, 0, sim)
		r.AddWait(txn, CauseLineWait, sim, 5, 1, 0)
		r.OpEnd(txn, 0, sim+15)
		r.End(txn, sim+15, OutcomeCommitted)
	}
}

// BenchmarkEnabledHotHook times the single hottest event (a line-lock wait,
// resolved through the node registers) inside an open bracket.
func BenchmarkEnabledHotHook(b *testing.B) {
	r := New(Config{Nodes: 4})
	r.Begin(1, 0, 0)
	r.OpStart(1, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OnEvent(obs.Event{Kind: obs.KindLineLockWait, Sim: int64(i), A: 1, C: 1, Dur: 1})
	}
}
