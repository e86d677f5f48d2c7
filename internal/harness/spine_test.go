package harness

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
)

// spineRun is E22's schedule (convoy rounds, a lock conflict, a rollback, a
// crash, a frozen-window probe, recovery) under one protocol, with the
// waterfall recorder and the debt tracker folding an observer whose rings
// never wrap.
type spineRun struct {
	wf     *waterfall.Recorder
	dbt    *debt.Tracker
	rep    *recovery.RecoveryReport
	events []obs.Event // every event, in record order
}

func newSpineConsumers() (*waterfall.Recorder, *debt.Tracker) {
	c := machine.DefaultCostModel()
	return waterfall.New(waterfall.Config{}), debt.New(debt.Config{DiskReadNS: c.DiskRead, LogForceNS: c.LogForce})
}

func runSpine(t *testing.T, proto recovery.Protocol) spineRun {
	t.Helper()
	o := obs.NewWithCapacity(1 << 14)
	r := spineRun{}
	r.wf, r.dbt = newSpineConsumers()
	_, rep, err := waterfallArm(proto, hooks.Set{Observer: o, Waterfall: r.wf, Debt: r.dbt})
	if err != nil {
		t.Fatal(err)
	}
	r.rep = rep
	r.events = o.Events()
	var recorded int64
	for k := 0; k < 256; k++ {
		recorded += o.Count(obs.Kind(k)) // 0 past the last kind
	}
	if int64(len(r.events)) != recorded {
		t.Fatalf("rings kept %d of %d events: they wrapped", len(r.events), recorded)
	}
	// One goroutine recorded them all, so host time is record order.
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].Wall < r.events[j].Wall })
	return r
}

// TestTraceRebuildsConsumers: the trace alone is what the waterfall recorder,
// its recovery progress and the debt tracker fold — replayed in record order
// into fresh consumers, it rebuilds every deterministic thing they report.
func TestTraceRebuildsConsumers(t *testing.T) {
	for _, proto := range recovery.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			r := runSpine(t, proto)
			wf, dbt := newSpineConsumers()
			for _, e := range r.events {
				wf.OnEvent(e)
				dbt.OnEvent(e)
			}
			if got, want := wf.Slow(0), r.wf.Slow(0); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("replayed Slow: %d waterfalls, live %d (or they differ)", len(got), len(want))
			}
			if got, want := wf.Totals(), r.wf.Totals(); got != want {
				t.Errorf("replayed Totals %v, live %v", got, want)
			}
			gc, ga, gt := wf.Coverage()
			wc, wa, wt := r.wf.Coverage()
			if gc != wc || ga != wa || gt != wt {
				t.Errorf("replayed Coverage %v %d/%d, live %v %d/%d", gc, ga, gt, wc, wa, wt)
			}
			// The JSON form drops the host-time rate fields.
			got, _ := json.Marshal(wf.Progress().Snapshot())
			want, _ := json.Marshal(r.wf.Progress().Snapshot())
			if len(r.wf.Progress().Snapshot()) == 0 || string(got) != string(want) {
				t.Errorf("replayed progress\n%s\nlive\n%s", got, want)
			}
			if got, want := debtCounts(dbt.Snapshot()), debtCounts(r.dbt.Snapshot()); want.Recoveries != 1 || !reflect.DeepEqual(got, want) {
				t.Errorf("replayed debt %+v\nlive %+v", got, want)
			}
		})
	}
}

// debtCounts is a debt snapshot less its host-time fields, the wall MTTRs.
func debtCounts(s debt.Snapshot) debt.Snapshot {
	s.LastWallNS, s.AvgWallNS, s.EwmaWallNS = 0, 0, 0
	return s
}

// TestEachFactReportedOnce: a transaction's begin, commit and abort, a
// recovery's start and end, and each recovery phase are one event each.
func TestEachFactReportedOnce(t *testing.T) {
	for _, proto := range recovery.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			r := runSpine(t, proto)
			type life struct{ begins, commits, aborts int }
			txns := map[int64]*life{}
			of := func(txn int64) *life {
				if txns[txn] == nil {
					txns[txn] = &life{}
				}
				return txns[txn]
			}
			starts, ends, phases := 0, 0, 0
			for _, e := range r.events {
				switch {
				case e.Kind == obs.KindTxnBegin:
					of(e.A).begins++
				case e.Kind == obs.KindTxnCommit:
					of(e.A).commits++
				case e.Kind == obs.KindTxnAbort:
					of(e.A).aborts++
				case e.Kind == obs.KindProgress && e.Phase == obs.PhaseNone && e.A == 0:
					starts++
				case e.Kind == obs.KindRecovery:
					ends++
				case e.Kind == obs.KindPhase:
					phases++
				}
			}
			committed := 0
			for id, l := range txns {
				if l.commits > 0 {
					committed++
				}
				if l.begins != 1 || l.commits+l.aborts > 1 {
					t.Errorf("txn %d: %+v, want one begin and at most one end", id, *l)
				}
			}
			if committed == 0 || int64(committed) > r.wf.Completed() {
				t.Errorf("%d committed transactions, %d waterfalls completed", committed, r.wf.Completed())
			}
			if starts != 1 || ends != 1 || phases != len(r.rep.Phases) {
				t.Errorf("recovery: %d starts, %d ends, %d phase spans; want 1, 1, %d", starts, ends, phases, len(r.rep.Phases))
			}
		})
	}
}
