// Command smdb-bench runs the experiments that regenerate the paper's
// table, measured numbers, and quantitative claims (DESIGN.md experiment
// index E1-E10), printing each as an aligned text table.
//
// Usage:
//
//	smdb-bench [-exp all|table1|linelock|...] [-seed N]
//	           [-trace out.json] [-metrics] [-http 127.0.0.1:8321]
//	           [-audit] [-window 1ms]
//
// The observability flags are the shared set (internal/obscli): -trace
// writes a Chrome trace-event JSON file (load it at ui.perfetto.dev or
// chrome://tracing) covering the traced experiments — restart recovery's
// phase spans in particular; -metrics prints the observability layer's
// Prometheus text exposition and latency table after the experiments; -http
// serves the live introspection endpoints while the experiments run.
// The online auditor's census is E19's subject (`-exp audit`), which
// attaches its own per-arm auditors and needs no flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smdb/internal/harness"
	"smdb/internal/obs"
	"smdb/internal/obscli"
	"smdb/internal/recovery"
)

// experiment is one runnable entry: run prints its table(s) or fails.
type experiment struct {
	name   string
	id     string
	title  string
	source string
	run    func(seed int64, o *obs.Observer) (string, error)
}

// obsFlags is set in main before any experiment runs; the E18 closure reads
// the -recoverworkers knob from it.
var obsFlags *obscli.Flags

var experiments = []experiment{
	{"table1", "E1", "incremental overheads of the IFA protocols", "Table 1",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunTable1(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"linelock", "E2", "line-lock acquisition latency vs contention", "section 5.1 measurements",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunLineLock(nil, 200, 0)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"aborts", "E3", "unnecessary aborts after a one-node crash", "sections 1, 3, 9",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunAborts(8, nil, nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"runtime", "E4", "failure-free runtime cost per protocol", "sections 4.1.1, 5, 7",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunRuntime(8, 0.5, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"restart", "E5", "restart recovery: Redo All vs Selective Redo", "section 4.1.2",
		func(seed int64, o *obs.Observer) (string, error) {
			res, err := harness.RunRestart(nil, seed, o)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"forces", "E6", "log-force frequency vs inter-node sharing", "section 5.2",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunForces(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"broadcast", "E7", "write-broadcast coherency: no migration, undo-only recovery", "section 7",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunBroadcast(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"locks", "E8", "SM locking vs message-passing (shared-disk) locking", "sections 4.2.2, 7, ref [20]",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunLocks(nil, 200, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"btree", "E9", "B-tree crash recovery with early-committed splits", "section 4.2.1",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunBTreeRecovery(recovery.VolatileSelectiveRedo, 80, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"lockrecovery", "E10", "lock-space recovery: LCB loss, release, and rebuild", "section 4.2.2",
		func(seed int64, o *obs.Observer) (string, error) {
			var b strings.Builder
			for _, chained := range []bool{false, true} {
				res, err := harness.RunLockRecovery(recovery.VolatileSelectiveRedo, 8, seed, chained, o)
				if err != nil {
					return "", err
				}
				b.WriteString(res.Table())
			}
			return b.String(), nil
		}},
	{"ablation", "E11", "ablation: the same crash scenarios with LBM disabled", "negative control; sections 3-4",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunAblation()
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"parallel", "E12", "parallel (multi-node) transactions: one crashed branch dooms all", "section 9",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunParallel(recovery.VolatileSelectiveRedo, 4)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"scaling", "E13", "availability scaling: lost work per year vs machine size", "sections 1, 3.3",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunScaling(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"hotspot", "E14", "access skew: migration pressure and force rates", "sections 3.2, 5.2 (worst-case sharing)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunHotspot(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"osstruct", "E15", "operating-system structures: semaphores and the disk map", "section 9 (conclusions)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunOSStruct()
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"depcensus", "E17", "dependency census: cross-node dependencies per LBM discipline", "sections 3-4 (the hazard LBM prevents, quantified)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunDepCensus(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"parrecovery", "E18", "sequential vs parallel restart-recovery makespan", "section 4.1.2 (node-parallel restart), this implementation's worker pipeline",
		func(seed int64, _ *obs.Observer) (string, error) {
			// -recoverworkers narrows the sweep to sequential vs that
			// fan-out; unset, the standard 0/1/2/4/8 sweep runs.
			var workers []int
			if obsFlags.RecoverWorkers > 0 {
				workers = []int{0, obsFlags.RecoverWorkers}
			}
			res, err := harness.RunParRecovery(seed, workers)
			if err != nil {
				return "", err
			}
			out := res.Table()
			if obsFlags.Prof {
				// -prof: rerun the widest fan-out profiled and append the
				// contended-stripes + worker busy/wait breakdown.
				pres, err := harness.RunRecoveryProfile(seed, workers)
				if err != nil {
					return "", err
				}
				out += "\n" + pres.Report()
			}
			return out, nil
		}},
	{"audit", "E19", "online-auditor overhead and violation census", "sections 3-4 (the LBM invariant, checked live); E11's ablation, online",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunAuditOverhead(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"recoveryprofile", "E20", "parallel-recovery wall-clock attribution (busy / lock-wait / condvar / idle / merge)", "this implementation's contention profiler over the E18 workload",
		func(seed int64, _ *obs.Observer) (string, error) {
			// -recoverworkers narrows the sweep to sequential vs that
			// fan-out; unset, the standard 0/2/4/8 sweep runs.
			var workers []int
			if obsFlags.RecoverWorkers > 0 {
				workers = []int{0, obsFlags.RecoverWorkers}
			}
			res, err := harness.RunRecoveryProfile(seed, workers)
			if err != nil {
				return "", err
			}
			return res.Report(), nil
		}},
	{"waterfall", "E22", "per-transaction latency waterfalls: causal attribution coverage, tail samples, and recorder overhead", "this implementation's observability layer; sections 5-6 (where each transaction's time went)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunWaterfall(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"recoverydebt", "E24", "recovery-debt estimator: calibrated replay-time estimates vs measured recovery, MTTR accounting, attribution coverage", "this implementation's observability layer; section 5 (how much recovery a crash would cost right now)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := harness.RunRecoveryDebt(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
}

func expNames() []string {
	names := make([]string, 0, len(experiments)+1)
	names = append(names, "all")
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: smdb-bench [-exp %s] [-seed N] [-trace out.json] [-metrics]\n",
		strings.Join(expNames(), "|"))
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(expNames(), ", ")+")")
	seed := flag.Int64("seed", 1, "workload seed")
	obsFlags = obscli.AddFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if err := obsFlags.RejectSched("smdb-bench"); err != nil {
		fmt.Fprintf(os.Stderr, "smdb-bench: %v\n", err)
		os.Exit(1)
	}
	known := *exp == "all"
	for _, e := range experiments {
		if e.name == *exp {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "smdb-bench: unknown experiment %q\n", *exp)
		usage()
		os.Exit(1)
	}

	stack, err := obsFlags.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smdb-bench: %v\n", err)
		os.Exit(1)
	}
	tracer := stack.Obs

	// Every experiment's schedule derives from this seed; print it so any
	// run — especially a failing one in CI — is reproducible verbatim.
	fmt.Printf("seed: %d (rerun with -seed %d to reproduce)\n", *seed, *seed)

	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("\n=== %s: %s\n    (paper: %s)\n\n", e.id, e.title, e.source)
		table, err := e.run(*seed, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smdb-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Print(table)
		ran++
	}
	if ran == 0 {
		usage()
		os.Exit(1)
	}

	if obsFlags.Metrics {
		// In addition to the shared latency table, the bench prints the
		// Prometheus exposition itself: CI diffs it for exposition-format
		// regressions without needing a live scrape.
		fmt.Printf("\n=== observability metrics\n\n")
		if err := tracer.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "smdb-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if err := stack.Finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "smdb-bench: %v\n", err)
		os.Exit(1)
	}
}
