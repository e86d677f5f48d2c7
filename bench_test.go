// Benchmarks regenerating the paper's evaluation (DESIGN.md experiment
// index). Each benchmark runs one experiment per iteration, reports the
// headline quantity as custom metrics (simulated time — the calibrated
// 1995-hardware clock — alongside Go's wall-clock ns/op), and prints the
// experiment's table once. EXPERIMENTS.md records paper-vs-measured.
package smdb_test

import (
	"strings"
	"sync"
	"testing"

	"smdb/internal/harness"
	"smdb/internal/recovery"
)

// metricName makes a label safe for testing.B.ReportMetric units.
func metricName(s string) string {
	for _, cut := range []string{"(", ")", ":"} {
		s = strings.ReplaceAll(s, cut, "")
	}
	return strings.ReplaceAll(s, " ", "-")
}

// logOnce prints each experiment's table a single time per bench run.
var logOnce sync.Map

func printTable(b *testing.B, name, table string) {
	if _, loaded := logOnce.LoadOrStore(name, true); !loaded {
		b.Logf("\n%s", table)
	}
}

// BenchmarkTable1Overheads regenerates Table 1 (experiment E1): the
// incremental overhead matrix of the IFA protocols on a mixed
// record/index/lock workload.
func BenchmarkTable1Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "table1", res.Table())
			base := res.Rows[0].SimTime
			for _, row := range res.Rows {
				b.ReportMetric(float64(row.SimTime)/float64(base), "slowdown/"+row.Protocol.String())
			}
		}
	}
}

// BenchmarkLineLockLatency regenerates the section 5.1 measurements
// (experiment E2): line-lock acquisition latency under 1..32-way
// contention.
func BenchmarkLineLockLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLineLock(nil, 200, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "linelock", res.Table())
			b.ReportMetric(float64(res.Points[0].MeanNS), "sim-ns/acquire-uncontended")
			b.ReportMetric(float64(res.Points[len(res.Points)-1].MeanNS), "sim-ns/acquire-32way")
		}
	}
}

// BenchmarkUnnecessaryAborts regenerates experiment E3: the fraction of
// active transactions aborted by a one-node crash, per protocol and sharing
// level — the paper's headline claim.
func BenchmarkUnnecessaryAborts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAborts(8, []int{1, 4, 8}, []float64{0, 0.5, 1}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "aborts", res.Table())
			var baseUnnecessary, ifaUnnecessary int
			for _, p := range res.Points {
				if p.Protocol == recovery.BaselineFA {
					baseUnnecessary += p.Unnecessary
				} else {
					ifaUnnecessary += p.Unnecessary
				}
			}
			b.ReportMetric(float64(baseUnnecessary), "unnecessary-aborts/baseline")
			b.ReportMetric(float64(ifaUnnecessary), "unnecessary-aborts/ifa")
		}
	}
}

// BenchmarkRuntimeOverhead regenerates experiment E4: failure-free per-
// operation cost of each protocol relative to the baseline.
func BenchmarkRuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunRuntime(8, 0.5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "runtime", res.Table())
			for _, p := range res.Points {
				name := p.Protocol.String()
				if p.NVRAM {
					name += "+nvram"
				}
				b.ReportMetric(p.Slowdown, "slowdown/"+name)
			}
		}
	}
}

// BenchmarkRestartRecovery regenerates experiment E5: restart cost of Redo
// All vs Selective Redo as the post-checkpoint backlog grows.
func BenchmarkRestartRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunRestart([]int{64, 256}, int64(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "restart", res.Table())
			for _, p := range res.Points {
				if p.Backlog == 256 {
					b.ReportMetric(float64(p.RedoApplied), "redo@256/"+p.Protocol.String())
				}
			}
		}
	}
}

// BenchmarkLogForceFrequency regenerates experiment E6: physical log-force
// frequency of eager vs triggered Stable LBM vs Volatile LBM as inter-node
// sharing grows.
func BenchmarkLogForceFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunForces([]float64{0, 0.5, 1}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "forces", res.Table())
			for _, p := range res.Points {
				if p.SharingFraction == 1 {
					b.ReportMetric(p.ForcesPerKUpdate, "forces-per-1k@full-sharing/"+p.Protocol.String())
				}
			}
		}
	}
}

// BenchmarkWriteBroadcast regenerates experiment E7: under write-broadcast
// coherency, ww sharing stops migrating lines and restart needs no redo.
func BenchmarkWriteBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunBroadcast(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "broadcast", res.Table())
			for _, p := range res.Points {
				b.ReportMetric(float64(p.Migrations), "migrations/"+p.Coherency.String())
				b.ReportMetric(float64(p.RedoApplied), "redo/"+p.Coherency.String())
			}
		}
	}
}

// BenchmarkLockManagers regenerates experiment E8: SM locking vs the
// message-passing shared-disk baseline.
func BenchmarkLockManagers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLocks([]int{8, 32}, 100, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "locks", res.Table())
			for _, p := range res.Points {
				if p.Nodes == 32 {
					b.ReportMetric(float64(p.MeanAcquireNS), "sim-ns/acquire@32/"+metricName(p.Manager))
				}
			}
		}
	}
}

// BenchmarkBTreeRecovery regenerates experiment E9: index crash recovery
// with early-committed splits.
func BenchmarkBTreeRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunBTreeRecovery(recovery.VolatileSelectiveRedo, 80, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.TreeViolations != 0 || res.IFAViolations != 0 {
			b.Fatalf("violations: %+v", res)
		}
		if i == 0 {
			printTable(b, "btree", res.Table())
			b.ReportMetric(float64(res.RecoverySimTime)/1e6, "sim-ms/recovery")
		}
	}
}

// BenchmarkLockSpaceRecovery regenerates experiment E10: LCB loss, release
// of crashed transactions' locks, and rebuild from read-lock logs.
func BenchmarkLockSpaceRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, chained := range []bool{false, true} {
			res, err := harness.RunLockRecovery(recovery.VolatileSelectiveRedo, 8, int64(i+1), chained, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Violations != 0 {
				b.Fatalf("IFA violations (chained=%v): %d", chained, res.Violations)
			}
			if i == 0 {
				name := "lockrecovery-oneline"
				if chained {
					name = "lockrecovery-chained"
				}
				printTable(b, name, res.Table())
				b.ReportMetric(float64(res.Replayed), "locks-replayed/"+name)
			}
		}
	}
}

// BenchmarkAblationNoLBM regenerates experiment E11: the figure 2 crash
// scenarios with logging-before-migration disabled, demonstrating the
// hazards the protocols exist to prevent (the IFA checker must flag both).
func BenchmarkAblationNoLBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "ablation", res.Table())
			for _, p := range res.Points {
				b.ReportMetric(float64(p.Violations),
					metricName("violations/"+p.Protocol.String()+"/case"+string('0'+byte(p.CrashCase))))
			}
		}
	}
}

// BenchmarkParallelTxn regenerates experiment E12 (paper section 9): a
// parallel transaction loses one participant node; every branch aborts
// while independent transactions survive.
func BenchmarkParallelTxn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunParallel(recovery.VolatileSelectiveRedo, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.AbortedBranches != res.Participants || !res.IndependentSurvived || res.Violations != 0 {
			b.Fatalf("shape broken: %+v", res)
		}
		if i == 0 {
			printTable(b, "parallel", res.Table())
			b.ReportMetric(float64(res.AbortedBranches), "branches-aborted")
		}
	}
}

// BenchmarkScaling regenerates experiment E13: one-node-crash damage vs
// machine size, extrapolated to yearly lost work — the introduction's
// availability argument for IFA.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunScaling([]int{8, 32}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "scaling", res.Table())
			for _, p := range res.Points {
				if p.Nodes == 32 {
					b.ReportMetric(p.LostWritesPerYear, "lost-writes-per-year@32/"+p.Protocol.String())
				}
			}
		}
	}
}

// BenchmarkHotspot regenerates experiment E14: access skew moves contention
// from the coherence fabric into the lock manager; the triggered policy's
// force rate tracks migrations, not updates.
func BenchmarkHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunHotspot([]float64{0, 0.9}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "hotspot", res.Table())
			for _, p := range res.Points {
				if p.HotProb == 0.9 {
					b.ReportMetric(p.MigrationsPerUpdate, "migrations-per-update@hot/"+p.Protocol.String())
				}
			}
		}
	}
}

// BenchmarkOSStructures regenerates experiment E15 (paper section 9): the
// recovery techniques applied to operating-system structures — a
// shared-memory semaphore table and disk-usage bitmap survive a node crash
// with survivors' holdings intact and the victim's resources reclaimed.
func BenchmarkOSStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunOSStruct()
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("integrity violations: %+v", res)
		}
		if i == 0 {
			printTable(b, "osstruct", res.Table())
			b.ReportMetric(float64(res.BlocksReclaimed), "victim-blocks-reclaimed")
		}
	}
}
