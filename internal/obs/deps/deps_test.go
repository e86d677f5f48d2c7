package deps

import (
	"strings"
	"testing"

	"smdb/internal/obs"
)

// txnID packs a wal.TxnID-style id: home node in the high 16 bits.
func txnID(node, seq int64) int64 { return node<<48 | seq }

func ev(k obs.Kind, node int32, sim, a, b int64) obs.Event {
	return obs.Event{Kind: k, Node: node, Sim: sim, A: a, B: b}
}

func TestNilTrackerInert(t *testing.T) {
	var tr *Tracker
	if tr.Enabled() {
		t.Error("nil tracker reports enabled")
	}
	tr.OnEvent(ev(obs.KindMigrate, 1, 10, 5, 0))
	tr.NoteWrite(txnID(1, 1), 1, 5, 0, 7, 10)
	tr.NoteCrash([]int32{1}, []int32{5}, nil, 20)
	tr.NoteRecovered(nil, 30)
	if got := tr.Verdicts(); got != nil {
		t.Errorf("nil tracker verdicts = %v", got)
	}
	if got := tr.TakeVerdicts(); got != nil {
		t.Errorf("nil tracker take-verdicts = %v", got)
	}
	if c := tr.Census(); c.Txns != 0 {
		t.Errorf("nil tracker census = %+v", c)
	}
	if g := tr.Graph(); len(g.Txns) != 0 || len(g.Lines) != 0 {
		t.Errorf("nil tracker graph = %+v", g)
	}
}

func TestNilTrackerHooksDoNotAllocate(t *testing.T) {
	var tr *Tracker
	e := ev(obs.KindMigrate, 1, 10, 5, 0)
	if n := testing.AllocsPerRun(100, func() {
		tr.OnEvent(e)
		tr.NoteWrite(txnID(1, 1), 1, 5, 0, 7, 10)
		tr.NoteCrash(nil, nil, nil, 20)
		tr.NoteRecovered(nil, 30)
	}); n != 0 {
		t.Errorf("disabled tracker hooks allocate %v times per call", n)
	}
}

func TestMigrateCreatesEdge(t *testing.T) {
	tr := New(nil)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 7, 10)
	tr.OnEvent(ev(obs.KindMigrate, 3, 20, 5, 1)) // line 5: node 1 -> node 3

	g := tr.Graph()
	if len(g.Txns) != 1 {
		t.Fatalf("txns = %d, want 1", len(g.Txns))
	}
	deps := g.Txns[0].Deps
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want one edge", deps)
	}
	e := deps[0]
	if e.To != 3 || e.Line != 5 || e.Kind != "migrate" || e.LSN != 7 || e.Unlogged {
		t.Errorf("edge = %+v", e)
	}
	// Residency history records the move, and holdership transferred.
	var line5 LineJSON
	for _, l := range g.Lines {
		if l.Line == 5 {
			line5 = l
		}
	}
	if len(line5.Holders) != 1 || line5.Holders[0] != 3 {
		t.Errorf("line 5 holders = %v, want [3]", line5.Holders)
	}
	last := line5.History[len(line5.History)-1]
	if last.Kind != "migrate" || last.From != 1 || last.To != 3 {
		t.Errorf("last residency step = %+v", last)
	}
}

func TestEdgeDedupAndCensus(t *testing.T) {
	tr := New(nil)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 0, 10) // unlogged
	tr.OnEvent(ev(obs.KindMigrate, 3, 20, 5, 1))
	tr.OnEvent(ev(obs.KindMigrate, 1, 30, 5, 3)) // back home
	tr.OnEvent(ev(obs.KindMigrate, 3, 40, 5, 1)) // away again: deduped

	c := tr.Census()
	if c.Edges != 1 || c.UnloggedEdges != 1 {
		t.Errorf("census edges = %d unlogged = %d, want 1/1", c.Edges, c.UnloggedEdges)
	}
	tr.OnEvent(ev(obs.KindTxnCommit, 1, 50, id, 0))
	c = tr.Census()
	if c.Txns != 1 || c.Active != 0 || c.TxnsWithDeps != 1 || c.TxnsWithUnlogged != 1 {
		t.Errorf("census after commit = %+v", c)
	}
	if c.MaxDeps != 1 || c.DepSizes[1] != 1 {
		t.Errorf("dep sizes = %+v max = %d", c.DepSizes, c.MaxDeps)
	}
	if got := c.MeanDeps(); got != 1 {
		t.Errorf("mean deps = %v, want 1", got)
	}
}

func TestDoomedSurvivorVerdict(t *testing.T) {
	tr := New(nil)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 0, 10)            // unlogged (deferred logging)
	tr.OnEvent(ev(obs.KindMigrate, 3, 20, 5, 1))  // sole copy now on node 3
	tr.NoteCrash([]int32{3}, []int32{5}, nil, 30) // node 3 dies holding it

	vs := tr.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v, want one survivor verdict", vs)
	}
	v := vs[0]
	if v.Crashed || !v.Doomed || v.Txn != id {
		t.Errorf("verdict = %+v, want doomed survivor", v)
	}
	if !strings.Contains(v.Text, "DOOMED") {
		t.Errorf("text = %q", v.Text)
	}
	joined := strings.Join(v.Evidence, "\n")
	if !strings.Contains(joined, "unlogged cross-node dependency") ||
		!strings.Contains(joined, "migrated to crashed node 3") {
		t.Errorf("evidence = %q", joined)
	}
}

func TestLoggedSurvivorLossIsCovered(t *testing.T) {
	tr := New(nil)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 7, 10) // volatile log record LSN 7
	tr.OnEvent(ev(obs.KindMigrate, 3, 20, 5, 1))
	tr.NoteCrash([]int32{3}, []int32{5}, nil, 30)

	vs := tr.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v", vs)
	}
	v := vs[0]
	if v.Doomed {
		t.Errorf("logged update marked doomed: %+v", v)
	}
	if !strings.Contains(strings.Join(v.Evidence, "\n"), "redo restores the update") {
		t.Errorf("evidence = %q", v.Evidence)
	}
}

func TestSharedCopySurvivesNoLoss(t *testing.T) {
	tr := New(nil)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 0, 10)
	// Node 3 gains only a shared copy; node 1 keeps its own.
	tr.OnEvent(ev(obs.KindDowngrade, 3, 20, 5, 1))
	tr.NoteCrash([]int32{3}, nil, nil, 30) // line 5 not lost: node 1 still holds it

	vs := tr.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v", vs)
	}
	v := vs[0]
	if v.Doomed {
		t.Errorf("surviving copy marked doomed: %+v", v)
	}
	if !strings.Contains(strings.Join(v.Evidence, "\n"), "a surviving copy remains") {
		t.Errorf("evidence = %q", v.Evidence)
	}
}

func TestCrashedVerdictLogCoverageCounts(t *testing.T) {
	tr := New(nil)
	id := txnID(2, 9)
	tr.NoteWrite(id, 2, 10, 1, 3, 10) // will be stable (forced through 5)
	tr.NoteWrite(id, 2, 11, 2, 8, 11) // volatile only
	tr.NoteWrite(id, 2, 12, 3, 0, 12) // unlogged
	tr.OnEvent(ev(obs.KindWALForce, 2, 15, 2, 5))
	tr.NoteCrash([]int32{2}, []int32{10, 11, 12}, nil, 20)

	vs := tr.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v", vs)
	}
	v := vs[0]
	if !v.Crashed {
		t.Fatalf("verdict = %+v, want crashed", v)
	}
	if !strings.Contains(v.Text, "3 updates in flight: 1 stable-logged, 1 volatile-only, 1 unlogged") {
		t.Errorf("text = %q", v.Text)
	}
	if len(v.Evidence) != 3 {
		t.Errorf("evidence = %q", v.Evidence)
	}
}

func TestNoteRecoveredSettlesVictims(t *testing.T) {
	tr := New(nil)
	aborted := txnID(1, 1)
	committed := txnID(1, 2)
	tr.NoteWrite(aborted, 1, 5, 1, 3, 10)
	tr.NoteWrite(committed, 1, 6, 2, 4, 11)
	tr.NoteCrash([]int32{1}, nil, nil, 20)
	tr.NoteRecovered([]int64{aborted}, 30)

	c := tr.Census()
	if c.Txns != 2 || c.Active != 0 {
		t.Errorf("census = %+v, want 2 settled", c)
	}
	g := tr.Graph()
	if len(g.Crashes) != 0 {
		t.Errorf("crash episode not closed: %+v", g.Crashes)
	}
	if len(g.Txns) != 0 {
		t.Errorf("victims still live: %+v", g.Txns)
	}
}

func TestResidencyHistoryBounded(t *testing.T) {
	tr := New(nil)
	for i := 0; i < historyCap*3; i++ {
		to := int32(i % 4)
		tr.OnEvent(ev(obs.KindMigrate, to, int64(i), 5, int64((i+1)%4)))
	}
	g := tr.Graph()
	if len(g.Lines) != 1 {
		t.Fatalf("lines = %+v", g.Lines)
	}
	h := g.Lines[0].History
	if len(h) != historyCap {
		t.Errorf("history length = %d, want %d", len(h), historyCap)
	}
	// The newest steps survive.
	if h[len(h)-1].Sim != int64(historyCap*3-1) {
		t.Errorf("newest step = %+v", h[len(h)-1])
	}
}

func TestEchoEmitsDepEdgeInstant(t *testing.T) {
	o := obs.NewWithCapacity(64)
	tr := New(o)
	id := txnID(1, 1)
	tr.NoteWrite(id, 1, 5, 100, 7, 10)
	tr.OnEvent(ev(obs.KindMigrate, 3, 20, 5, 1))

	found := false
	for _, e := range o.Events() {
		if e.Kind == obs.KindDepEdge {
			found = true
			if e.A != id {
				t.Errorf("dep-edge txn = %d, want %d", e.A, id)
			}
			if to, line := e.B>>32, e.B&0xffffffff; to != 3 || line != 5 {
				t.Errorf("dep-edge packed to/line = %d/%d, want 3/5", to, line)
			}
		}
	}
	if !found {
		t.Fatal("no KindDepEdge instant echoed to the observer")
	}
	// The echo must not recurse: feeding the tracker its own echo is a no-op.
	before := tr.Census()
	for _, e := range o.Events() {
		tr.OnEvent(e)
	}
	if after := tr.Census(); after.Edges != before.Edges {
		t.Errorf("replaying echoed events changed the graph: %+v -> %+v", before, after)
	}
}

func BenchmarkNilTrackerOnEvent(b *testing.B) {
	var tr *Tracker
	e := ev(obs.KindMigrate, 1, 10, 5, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.OnEvent(e)
	}
}

func BenchmarkNilTrackerNoteWrite(b *testing.B) {
	var tr *Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.NoteWrite(1, 1, 5, 100, 7, 10)
	}
}

func BenchmarkTrackerNoteWrite(b *testing.B) {
	tr := New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.NoteWrite(txnID(1, 1), 1, int32(i%64), int64(i%128), 7, int64(i))
	}
}
