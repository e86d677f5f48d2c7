package workload

import (
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/machine"
	"smdb/internal/obs/prof"
	"smdb/internal/recovery"
)

// TestChaosProfiledRecovery is TestChaosParallelRecovery with the contention
// profiler armed: every stripe acquisition, condvar sleep, and fan-out now
// runs the profiled hot path while crashes land mid-phase, so under -race
// this is the data-race coverage for the profiler's counter blocks, the
// holdStart hand-off in the stripe helpers, and mid-run attach/detach.
func TestChaosProfiledRecovery(t *testing.T) {
	protos := []recovery.Protocol{
		recovery.VolatileSelectiveRedo,
		recovery.StableTriggered,
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				db := chaosDB(t, proto, 5)
				db.Cfg.RecoveryWorkers = 4
				attachTracker(db)
				tracked := *db.Hooks()
				profiled := tracked
				profiled.Prof = prof.NewPair(machine.StripeCount)
				pair := profiled.Prof
				db.Attach(profiled)
				if seed == 2 {
					// One seed flips the profiler off and on mid-setup so
					// detach-with-open-sections sees chaos coverage too.
					db.Attach(tracked)
					db.Attach(profiled)
				}
				inj := fault.New(fault.Plan{
					Seed:              seed,
					PCrashAtMigration: 0.02,
					PCrashAtUpdate:    0.01,
					PTornForce:        0.02,
					PCrashInRecovery:  0.3,
					PCoordinatorCrash: 0.5,
					PIOError:          0.05,
					MaxCrashes:        2,
				})
				res, err := RunChaos(db, inj, chaosSpec(seed), 3)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Violations) != 0 {
					t.Errorf("seed %d: IFA violations under %v with profiled recovery:\n%s",
						seed, proto, strings.Join(res.Violations, "\n"))
				}
				snap := pair.Stripes.Snapshot()
				if snap.Totals().Acquires == 0 {
					t.Errorf("seed %d: profiler recorded no stripe acquisitions", seed)
				}
				if res.Episodes > 0 && len(pair.Workers.Snapshot().Phases) == 0 {
					t.Errorf("seed %d: %d recovery episodes but no fan-outs attributed",
						seed, res.Episodes)
				}
			}
		})
	}
}
