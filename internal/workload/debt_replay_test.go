package workload

import (
	"reflect"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/sched"
)

// TestChaosReplayDeterministicWithDebt re-runs the record/replay gate with a
// recovery-debt tracker attached: the tracker rides every WAL append, force,
// dirty-line transition, and recovery, and must neither perturb the recorded
// interleaving nor drift itself — a replay has to reproduce the recording's
// sim-deterministic debt accounting exactly (wall-clock-derived estimator
// fields are excluded by design; the estimator calibrates from real time).
func TestChaosReplayDeterministicWithDebt(t *testing.T) {
	proto := recovery.VolatileSelectiveRedo
	attach := func(db *recovery.DB) *debt.Tracker {
		d := debt.New(debt.Config{Nodes: db.M.Nodes(), LinesPerPage: db.Cfg.LinesPerPage})
		db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Debt: d})
		return d
	}
	type accounting struct {
		records, bytes, span int64
		coverage             float64
		recoveries, failures int64
	}
	account := func(d *debt.Tracker) accounting {
		s := d.Snapshot()
		return accounting{s.DebtRecords, s.DebtBytes, s.RedoSpan, s.Coverage, s.Recoveries, s.Failures}
	}

	for seed := int64(1); seed <= 2; seed++ {
		db0 := chaosDB(t, proto, 4)
		d0 := attach(db0)
		rec := sched.NewRecorder()
		res0, err := RunChaosSession(db0, fault.New(chaosPlan(seed)), chaosSpec(seed), 3, rec)
		if err != nil {
			t.Fatalf("record run (seed %d): %v", seed, err)
		}
		schedule := rec.Schedule()
		img0 := imageHash(t, db0)
		acc0 := account(d0)
		if acc0.records == 0 && acc0.recoveries == 0 {
			t.Fatalf("seed %d: tracker saw no traffic at all: %+v", seed, acc0)
		}

		db1 := chaosDB(t, proto, 4)
		d1 := attach(db1)
		res1, err := RunChaosSession(db1, fault.New(chaosPlan(schedule.FaultSeed)),
			chaosSpec(schedule.Seed), 0, sched.NewReplayer(schedule))
		if err != nil {
			t.Fatalf("replay run (seed %d): %v", seed, err)
		}
		if !reflect.DeepEqual(res0, res1) {
			t.Errorf("seed %d: replay diverged from recording with debt attached:\n  rec %+v\n  rep %+v",
				seed, res0, res1)
		}
		if img1 := imageHash(t, db1); img0 != img1 {
			t.Errorf("seed %d: replay image differs from recording's", seed)
		}
		if acc1 := account(d1); acc0 != acc1 {
			t.Errorf("seed %d: replay debt accounting diverged:\n  rec %+v\n  rep %+v", seed, acc0, acc1)
		}
	}
}
