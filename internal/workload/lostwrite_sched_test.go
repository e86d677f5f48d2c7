package workload

import (
	"errors"
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/recovery"
	"smdb/internal/sched"
)

// testdata/lostwrite.min.json is a shrunk real capture of the
// committed-value-lost race that used to fail TestChaosSeededSweep under
// -race roughly one run in five (ROADMAP's former open item 6, EXPERIMENTS
// E21): a survivor passes the freeze check, a crash then destroys the sole
// dirty committed copy of its target line, and the survivor's fetch
// reinstalls the stale disk image — so its stranded-rollback abort later
// restores a stale before-image over a committed write. It was recorded
// with `smdb-chaos -protocol stable-eager -seeds 200 -ablate-install-gate
// -record dir` (seed 137 lost the write) at the standard chaos sweep fault
// mix and minimized with `smdb-chaos -shrink`. Its spec says
// ablateInstallGate, so -replay and -shrink of it ablate the gate without
// the flag. A change to what recovery does on the simulated machine can
// move the engine off a schedule (the replay then diverges); re-capture it
// the same way.

// lostWriteSchedule loads the committed schedule and rebuilds its replay
// environment exactly as cmd/smdb-chaos does: everything from the file.
func lostWriteSchedule(t *testing.T) (*sched.Schedule, recovery.Protocol, Spec, fault.Plan) {
	t.Helper()
	sch, err := sched.ReadFile("testdata/lostwrite.min.json")
	if err != nil {
		t.Fatalf("loading committed schedule: %v", err)
	}
	proto, ok := recovery.ParseProtocol(sch.Protocol)
	if !ok {
		t.Fatalf("schedule names unknown protocol %q", sch.Protocol)
	}
	rs := sch.Spec
	if rs == nil {
		t.Fatal("schedule carries no RunSpec")
	}
	spec := Spec{
		TxnsPerNode:     rs.TxnsPerNode,
		OpsPerTxn:       rs.OpsPerTxn,
		ReadFraction:    rs.ReadFraction,
		SharingFraction: rs.SharingFraction,
		HotSpot:         rs.HotSpot,
		HotProb:         rs.HotProb,
		AbortFraction:   rs.AbortFraction,
		HeapPages:       rs.HeapPages,
		Seed:            sch.Seed,
	}
	plan := fault.Plan{
		Seed:         sch.FaultSeed,
		MaxCrashes:   rs.MaxCrashes,
		MinAlive:     rs.MinAlive,
		IOErrorBurst: rs.IOErrorBurst,
		PIOError:     rs.PIOError,
	}
	return sch, proto, spec, plan
}

// TestLostWriteScheduleRegression replays the minimized schedule in both
// directions: with the install gate ablated (the pre-fix engine) the
// recorded violation must reproduce deterministically, and with the gate in
// place the same interleaving must not lose the committed write.
func TestLostWriteScheduleRegression(t *testing.T) {
	sch, proto, spec, plan := lostWriteSchedule(t)
	if sch.FailEpisode < 0 {
		t.Fatalf("committed schedule records no failing episode")
	}

	t.Run("ablated-gate-reproduces", func(t *testing.T) {
		db := chaosDB(t, proto, sch.Nodes)
		db.M.SetInstallGate(nil)
		res, err := RunChaosSession(db, fault.New(plan), spec, 0, sched.NewReplayer(sch))
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		lost := false
		for _, v := range res.Violations {
			if strings.Contains(v, "committed value lost") {
				lost = true
			}
		}
		if !lost {
			t.Fatalf("the minimized schedule no longer reproduces the lost write with the gate ablated; violations: %v",
				res.Violations)
		}
	})

	t.Run("install-gate-prevents", func(t *testing.T) {
		db := chaosDB(t, proto, sch.Nodes)
		res, err := RunChaosSession(db, fault.New(plan), spec, 0, sched.NewReplayer(sch))
		if err != nil {
			// The gate refusing the stale install may legitimately change
			// control flow enough that the replay leaves the schedule; what
			// it must never do is complete the schedule AND lose the write.
			if errors.Is(err, ErrScheduleDiverged) {
				return
			}
			t.Fatalf("replay: %v", err)
		}
		for _, v := range res.Violations {
			if strings.Contains(v, "committed value lost") {
				t.Fatalf("the install gate failed to prevent the recorded lost write: %s", v)
			}
		}
	})
}
