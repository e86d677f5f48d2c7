package audit

import (
	"strings"
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/deps"
)

// audited builds an auditor over a fresh residency model. The tests feed the
// model, as the engine does, and question the auditor.
func audited(cfg Config) (*deps.Tracker, *Auditor) {
	m := deps.New(nil)
	return m, New(m, cfg)
}

func ev(kind obs.Kind, node int32, sim, a, b int64) obs.Event {
	return obs.Event{Kind: kind, Node: node, Sim: sim, A: a, B: b}
}

func txnID(node, seq int64) int64 { return node<<48 | seq }

func TestTrailLifecycle(t *testing.T) {
	m, a := audited(Config{})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 7, 0, 42, 20)
	m.OnEvent(ev(obs.KindWALForce, 0, 30, 0, 42))
	m.OnEvent(ev(obs.KindTxnCommit, 0, 40, id, 1000))

	tr, ok := a.Trail(id)
	if !ok {
		t.Fatal("completed trail not found")
	}
	if tr.Outcome != "committed" || tr.Name != "t0.1" || tr.Updates != 1 {
		t.Errorf("trail = %+v", tr)
	}
	if tr.BeginSim != 10 || tr.EndSim != 40 {
		t.Errorf("trail times = %d..%d, want 10..40", tr.BeginSim, tr.EndSim)
	}
	kinds := make([]string, len(tr.Steps))
	for i, s := range tr.Steps {
		kinds[i] = s.Kind
	}
	want := "begin update log-force committed"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("steps = %q, want %q", got, want)
	}
	if tr.Steps[1].LSN != 42 || tr.Steps[1].Line != 7 {
		t.Errorf("update step = %+v", tr.Steps[1])
	}
	sum := a.Summary()
	if !sum.Enabled || sum.Active != 0 || sum.Completed != 1 || sum.Violations != 0 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestUnloggedExposureViolation(t *testing.T) {
	m, a := audited(Config{})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 5, 0, 0 /* no log record */, 20)

	// Dirty line 5 migrates to node 1: the deferred-logging hazard.
	m.OnEvent(ev(obs.KindMigrate, 1, 30, 5, 0))
	if n := a.ViolationCount(); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
	vs := a.Violations()
	v := vs[0]
	if v.Kind != ViolationUnlogged || v.Line != 5 || v.To != 1 || v.Event != "migrate" || v.Txn != id {
		t.Errorf("violation = %+v", v)
	}
	if len(v.Trail.Steps) == 0 {
		t.Error("violation carries no evidence trail")
	}

	// Same (line, destination) again: deduplicated.
	m.OnEvent(ev(obs.KindMigrate, 1, 40, 5, 0))
	if n := a.ViolationCount(); n != 1 {
		t.Errorf("violations after duplicate exposure = %d, want 1", n)
	}
	// A different destination is a fresh breach.
	m.OnEvent(ev(obs.KindReplicate, 2, 50, 5, 1))
	if n := a.ViolationCount(); n != 2 {
		t.Errorf("violations after second destination = %d, want 2", n)
	}
	sum := a.Summary()
	if sum.ViolationsByKind[ViolationUnlogged] != 2 {
		t.Errorf("by-kind census = %+v", sum.ViolationsByKind)
	}
}

func TestUnforcedExposureViolation(t *testing.T) {
	m, a := audited(Config{Stable: true})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 5, 0, 42, 20)

	// Exposure before the covering record is stable: unforced.
	m.OnEvent(ev(obs.KindMigrate, 1, 30, 5, 0))
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Kind != ViolationUnforced {
		t.Fatalf("violations = %+v, want one unforced-exposure", vs)
	}
	if vs[0].LSN != 42 || vs[0].Forced != 0 {
		t.Errorf("violation evidence = lsn %d forced %d, want 42/0", vs[0].LSN, vs[0].Forced)
	}

	// After a force covering the update, a fresh dirty line moves cleanly.
	m.NoteWrite(id, 0, 6, 0, 43, 40)
	m.OnEvent(ev(obs.KindWALForce, 0, 50, 0, 43))
	m.OnEvent(ev(obs.KindMigrate, 1, 60, 6, 0))
	if n := a.ViolationCount(); n != 1 {
		t.Errorf("violations after covered exposure = %d, want still 1", n)
	}
}

func TestVolatileCoverageSatisfies(t *testing.T) {
	m, a := audited(Config{Stable: false})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 5, 0, 42, 20)
	// Volatile policy: an unforced log record is enough.
	m.OnEvent(ev(obs.KindMigrate, 1, 30, 5, 0))
	if n := a.ViolationCount(); n != 0 {
		t.Errorf("violations = %d, want 0 under volatile LBM", n)
	}
}

func TestExposureToHomeNodeIgnored(t *testing.T) {
	m, a := audited(Config{})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 5, 0, 0, 20)
	// The line comes back home (abort undo fetch): same failure domain.
	m.OnEvent(ev(obs.KindMigrate, 0, 30, 5, 1))
	if n := a.ViolationCount(); n != 0 {
		t.Errorf("violations = %d, want 0 for home-bound transfer", n)
	}
}

func TestRecoverySuspendsChecks(t *testing.T) {
	m, a := audited(Config{})
	survivor := txnID(1, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 1, 10, survivor, 0))
	m.NoteWrite(survivor, 1, 9, 0, 0, 20)

	// Node 0 crashes: recovery repair traffic must not be audited.
	m.NoteCrash([]int32{0}, []int32{3}, nil, 30)
	m.OnEvent(ev(obs.KindMigrate, 2, 40, 9, 1))
	if n := a.ViolationCount(); n != 0 {
		t.Errorf("violations during recovery = %d, want 0 (checks suspended)", n)
	}

	// Recovery done: checking resumes.
	m.NoteRecovered(nil, 50)
	m.OnEvent(ev(obs.KindMigrate, 3, 60, 9, 2))
	if n := a.ViolationCount(); n != 1 {
		t.Errorf("violations after recovery = %d, want 1 (checks resumed)", n)
	}
}

func TestCrashVictimOutcomes(t *testing.T) {
	m, a := audited(Config{})
	loser := txnID(0, 1)
	winner := txnID(0, 2)
	bystander := txnID(1, 1)
	for _, tc := range []struct {
		id   int64
		node int32
	}{{loser, 0}, {winner, 0}, {bystander, 1}} {
		m.OnEvent(ev(obs.KindTxnBegin, tc.node, 10, tc.id, 0))
		m.NoteWrite(tc.id, tc.node, int32(tc.id%64), 0, int64(tc.id), 20)
	}
	m.NoteCrash([]int32{0}, nil, nil, 30)
	m.NoteRecovered([]int64{loser}, 40)

	if tr, ok := a.Trail(loser); !ok || tr.Outcome != "recovery-aborted" {
		t.Errorf("loser trail = %+v, %v", tr, ok)
	}
	if tr, ok := a.Trail(winner); !ok || tr.Outcome != "recovery-committed" {
		t.Errorf("winner trail = %+v, %v", tr, ok)
	}
	// The bystander on the surviving node is still live.
	if tr, ok := a.Trail(bystander); !ok || tr.Outcome != "active" {
		t.Errorf("bystander trail = %+v, %v", tr, ok)
	}
	sum := a.Summary()
	if sum.Active != 1 || sum.Completed != 2 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestCrashVictimKnownOnlyFromTheCensus: DB.Begin emits txn-begin after
// releasing the node's mutex, so a crash can reach the model first. The
// engine's own victim census, handed to NoteCrash, registers the transaction
// in the one transaction table — so the auditor opens its trail there too,
// and recovery's verdict closes it.
func TestCrashVictimKnownOnlyFromTheCensus(t *testing.T) {
	m, a := audited(Config{})
	victim := txnID(2, 7)
	m.NoteCrash([]int32{2}, nil, []deps.TxnRef{{ID: victim, Node: 2}}, 30)
	tr, ok := a.Trail(victim)
	if !ok || tr.Outcome != "crashed" || tr.Node != 2 || tr.BeginSim != 30 {
		t.Fatalf("census-only victim's trail = %+v, %v; want one opened and crashed at the crash", tr, ok)
	}
	// The overtaken begin event finds the transaction known.
	m.OnEvent(ev(obs.KindTxnBegin, 2, 25, victim, 0))
	m.NoteRecovered([]int64{victim}, 40)
	tr, ok = a.Trail(victim)
	if !ok || tr.Outcome != "recovery-aborted" || tr.EndSim != 40 {
		t.Fatalf("trail after recovery = %+v, %v; want recovery-aborted", tr, ok)
	}
	kinds := make([]string, len(tr.Steps))
	for i, s := range tr.Steps {
		kinds[i] = s.Kind
	}
	if got := strings.Join(kinds, " "); got != "begin crash recovery-aborted" {
		t.Errorf("steps = %q", got)
	}
	if sum := a.Summary(); sum.Active != 0 || sum.Completed != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestTrailRingBound(t *testing.T) {
	m, a := audited(Config{})
	const n = trailRing + 1
	for seq := int64(1); seq <= n; seq++ {
		id := txnID(0, seq)
		m.OnEvent(ev(obs.KindTxnBegin, 0, seq*10, id, 0))
		m.OnEvent(ev(obs.KindTxnCommit, 0, seq*10+5, id, 100))
	}
	if _, ok := a.Trail(txnID(0, 1)); ok {
		t.Error("oldest trail survived a full ring")
	}
	if _, ok := a.Trail(txnID(0, n)); !ok {
		t.Error("newest trail missing")
	}
	a.mu.Lock()
	recent := a.recentTrailsLocked()
	a.mu.Unlock()
	if len(recent) != trailRing || recent[0].Txn != txnID(0, n) || recent[trailRing-1].Txn != txnID(0, 2) {
		t.Errorf("recent ring holds %d trails, %v..%v, want %d newest-first t0.%d..t0.2",
			len(recent), recent[0].Name, recent[len(recent)-1].Name, trailRing, n)
	}
	if sum := a.Summary(); sum.Completed != n {
		t.Errorf("completed total = %d, want %d (ring bounds retention, not the count)", sum.Completed, n)
	}
}

func TestTrailStepCap(t *testing.T) {
	m, a := audited(Config{})
	id := txnID(0, 1)
	const updates = trailSteps + 2
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	for i := 0; i < updates; i++ {
		m.NoteWrite(id, 0, int32(i), 0, int64(i+1), int64(20+i))
	}
	m.OnEvent(ev(obs.KindTxnCommit, 0, 1000, id, 50))
	tr, ok := a.Trail(id)
	if !ok {
		t.Fatal("trail not found")
	}
	if len(tr.Steps) != trailSteps {
		t.Errorf("steps = %d, want capped at %d", len(tr.Steps), trailSteps)
	}
	// The begin step and trailSteps-1 updates fit; the last 3 updates and
	// the commit step are dropped.
	if tr.DroppedSteps != 4 {
		t.Errorf("dropped steps = %d, want 4", tr.DroppedSteps)
	}
	if tr.Updates != updates {
		t.Errorf("updates = %d, want %d (counter is exact even when steps drop)", tr.Updates, updates)
	}
}

func TestParseTxnID(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"t1.2", 1<<48 | 2, true},
		{"t0.7", 7, true},
		{" t3.1 ", 3<<48 | 1, true},
		{"42", 42, true},
		{"t1.x", 0, false},
		{"bogus", 0, false},
		{"", 0, false},
	} {
		got, err := ParseTxnID(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseTxnID(%q) = %d, %v, want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseTxnID(%q) accepted", tc.in)
		}
	}
	if name := (deps.Note{Txn: 1<<48 | 2}).Name(); name != "t1.2" {
		t.Errorf("tname round-trip = %q", name)
	}
}

func TestWritersNilSafe(t *testing.T) {
	var a *Auditor
	if a.Enabled() {
		t.Error("nil auditor claims enabled")
	}
	a.Event(ev(obs.KindMigrate, 1, 10, 5, 0))
	a.Note(deps.Note{Kind: deps.NoteUpdate, Txn: 1, Line: 5, LSN: 1, Sim: 10})
	a.Note(deps.Note{Class: deps.Episode, Kind: deps.NoteCrash})
	a.Note(deps.Note{Class: deps.Episode, Kind: deps.NoteRecovered})
	if a.Model() != nil {
		t.Error("nil auditor names a model")
	}
	if _, ok := a.Trail(1); ok {
		t.Error("nil auditor found a trail")
	}
	if a.Violations() != nil || a.ViolationCount() != 0 || a.Anomalies() != nil {
		t.Error("nil auditor reports data")
	}
	var sb strings.Builder
	for _, fn := range []func() error{
		func() error { return a.WriteAuditTxn(&sb, "") },
		func() error { return a.WriteAuditViolations(&sb) },
		func() error { return a.WriteTimeSeries(&sb) },
	} {
		sb.Reset()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `"enabled": false`) {
			t.Errorf("nil writer output = %q", sb.String())
		}
	}
}

func TestWriteAuditTxnJSON(t *testing.T) {
	m, a := audited(Config{})
	id := txnID(0, 1)
	m.OnEvent(ev(obs.KindTxnBegin, 0, 10, id, 0))
	m.NoteWrite(id, 0, 5, 0, 0, 20)
	m.OnEvent(ev(obs.KindMigrate, 1, 30, 5, 0))

	var sb strings.Builder
	if err := a.WriteAuditTxn(&sb, "t0.1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"found": true`, `"name": "t0.1"`, `"kind": "violation"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trail JSON missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := a.WriteAuditTxn(&sb, "t9.9"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"found": false`) {
		t.Errorf("missing-txn JSON = %q", sb.String())
	}

	sb.Reset()
	if err := a.WriteAuditTxn(&sb, ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"summary"`, `"active"`, `"recent"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("listing JSON missing %q", want)
		}
	}

	sb.Reset()
	if err := a.WriteAuditViolations(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total": 1`, ViolationUnlogged, `"trail"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("violations JSON missing %q:\n%s", want, sb.String())
		}
	}
}
