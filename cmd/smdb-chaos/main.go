// Command smdb-chaos runs seeded fault-injection schedules over the
// concurrent workload: crashes at line migrations and update windows, torn
// log tails, crashes during recovery itself (including the coordinator),
// and transient disk/log I/O errors. After every recovery it asserts the
// IFA checker; any violation fails the run.
//
// Usage:
//
//	smdb-chaos [-seeds 50] [-seed 1] [-nodes 4] [-protocol stable-eager]
//	           [-episodes 3] [-txns 6] [-ops 6] [-sharing 0.7]
//	           [-pmigration 0.02] [-pupdate 0.01] [-ptorn 0.02]
//	           [-precovery 0.3] [-pcoordinator 0.5] [-pioerror 0.05]
//	           [-maxcrashes 2] [-v] [-broken] [-ablate-install-gate]
//	           [-record dir/] [-replay schedule.json]
//	           [-shrink schedule.json] [-shrinkout min.json]
//	           [-trace out.json] [-metrics] [-http 127.0.0.1:8321]
//	           [-flightdir dumps/] [-audit] [-window 1ms]
//
// -seeds N sweeps N consecutive seeds starting at -seed. -episodes scales
// how many crash/recover episodes each seed runs (soak jobs raise it to
// lengthen runs without touching workload specs). -broken runs the
// AblatedNoLBM negative control instead and *expects* the harness to catch
// at least one IFA violation across the sweep, exiting non-zero if the
// deliberately broken protocol slips through undetected.
//
// Record, replay, shrink:
//
//   - -record dir/ captures every nondeterministic decision of each seed's
//     run (worker interleaving, stop observations, fault draws) and writes
//     failing seeds' schedules as dir/seedN.json. Recording serializes the
//     workers through a scheduling floor, so a recorded run explores
//     serialized interleavings — the same family a replay executes.
//   - -replay file.json re-executes one recorded schedule deterministically
//     (protocol, node count, and workload shape come from the file; the
//     sweep flags are ignored). The run must reproduce the recorded
//     outcome: violations if the schedule recorded a failure (FailEpisode
//     set), a clean pass otherwise. Divergence — the engine no longer
//     follows the schedule, e.g. because the bug it pinned is fixed — is
//     reported and fails the run.
//   - -shrink file.json delta-debugs a failing schedule down to a minimal
//     one that still fails (dropping episodes, retiring workers early,
//     removing fault draws) and writes it to -shrinkout (default:
//     file.min.json).
//   - -ablate-install-gate disables the frozen-window install gate,
//     reintroducing the committed-value-lost race the gate fixed; use it to
//     capture or validate repro schedules for that bug (the committed
//     regression schedule in internal/workload/testdata was captured this
//     way). A schedule recorded with it says so in its spec
//     (ablateInstallGate), and -replay and -shrink of it ablate the gate
//     without the flag.
//
// Exit codes: 0 — the sweep passed (or, under -broken, the negative control
// was caught; under -replay, the recorded outcome reproduced); 1 — harness
// errors, IFA violations on a real protocol, explainer/checker mismatches,
// an undetected -broken control, replay divergence or outcome mismatch, or
// a failed shrink.
//
// The shared observability flags (internal/obscli) additionally arm the
// dependency-graph explainer: every recovery's verdicts are cross-checked
// against the IFA checker, -flightdir captures a flight-recorder dump for
// every violating episode (including schedule.json when recording, so the
// dump is its own repro), and -http serves the live dependency graph of
// the seed currently running. -audit arms the online IFA auditor on top:
// per-transaction audit trails, continuous logging-before-migration checks
// (violations fail a real-protocol sweep and are *required* under -broken),
// and windowed time-series metrics with the anomaly watchdog, served at
// /audit/txn, /audit/violations, and /timeseries.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"smdb/internal/fault"
	"smdb/internal/machine"
	"smdb/internal/obscli"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/workload"
)

var protocols = map[string]recovery.Protocol{
	"volatile-redoall":   recovery.VolatileRedoAll,
	"volatile-selective": recovery.VolatileSelectiveRedo,
	"stable-eager":       recovery.StableEager,
	"stable-triggered":   recovery.StableTriggered,
	"ablated":            recovery.AblatedNoLBM,
}

func main() {
	seeds := flag.Int("seeds", 50, "number of consecutive seeds to sweep")
	seed := flag.Int64("seed", 1, "first seed of the sweep")
	nodes := flag.Int("nodes", 4, "number of processor/memory pairs")
	protoName := flag.String("protocol", "stable-eager", "volatile-redoall | volatile-selective | stable-eager | stable-triggered | ablated")
	episodes := flag.Int("episodes", 3, "crash/recover episodes per seed")
	txns := flag.Int("txns", 6, "transactions per node per episode")
	ops := flag.Int("ops", 6, "operations per transaction")
	sharing := flag.Float64("sharing", 0.7, "fraction of operations on shared records")
	pMigration := flag.Float64("pmigration", 0.02, "P(crash at a database-line migration)")
	pUpdate := flag.Float64("pupdate", 0.01, "P(crash between log append and slot write)")
	pTorn := flag.Float64("ptorn", 0.02, "P(log force torn mid-write)")
	pRecovery := flag.Float64("precovery", 0.3, "P(crash at a recovery phase boundary)")
	pCoordinator := flag.Float64("pcoordinator", 0.5, "P(the in-recovery victim is the coordinator)")
	pIOError := flag.Float64("pioerror", 0.05, "P(transient I/O error per storage operation)")
	maxCrashes := flag.Int("maxcrashes", 2, "crash budget per episode")
	verbose := flag.Bool("v", false, "print every seed's result line, not just failures")
	broken := flag.Bool("broken", false, "run the AblatedNoLBM negative control and expect the harness to catch it")
	ablateGate := flag.Bool("ablate-install-gate", false, "disable the frozen-window install gate (reintroduces the lost-write race; for capturing repro schedules)")
	shrinkPath := flag.String("shrink", "", "delta-debug a recorded failing schedule down to a minimal one")
	shrinkOut := flag.String("shrinkout", "", "output path for -shrink (default: input with a .min.json suffix)")
	obsFlags := obscli.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.SchedCheck(); err != nil {
		fatal(err)
	}
	if *shrinkPath != "" {
		if obsFlags.Record != "" || obsFlags.Replay != "" {
			fatal(fmt.Errorf("-shrink cannot be combined with -record/-replay"))
		}
		runShrink(*shrinkPath, *shrinkOut, *ablateGate)
		return
	}

	stack, err := obsFlags.Build()
	if err != nil {
		fatal(err)
	}

	if obsFlags.Replay != "" {
		runReplay(obsFlags, stack, *ablateGate)
		return
	}

	proto, ok := protocols[*protoName]
	if !ok {
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}
	if *broken {
		proto = recovery.AblatedNoLBM
		// The no-LBM hazard needs a migration crash landing mid-workload;
		// unless the caller tuned it, raise the odds so the control is
		// demonstrable in a short sweep.
		tuned := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pmigration" {
				tuned = true
			}
		})
		if !tuned {
			*pMigration = 0.35
		}
	}
	fmt.Printf("chaos: protocol=%s nodes=%d seeds=%d..%d episodes=%d (budget %d crashes/episode)\n",
		proto, *nodes, *seed, *seed+int64(*seeds)-1, *episodes, *maxCrashes)

	violating, failed := 0, 0
	verdicts, doomed, mismatched := 0, 0, 0
	auditViolations, auditAnomalies, auditSeeds := 0, 0, 0
	recorded := 0
	for i := 0; i < *seeds; i++ {
		s := *seed + int64(i)
		db, err := newChaosDB(proto, *nodes, *ablateGate)
		if err != nil {
			fatal(err)
		}
		stack.Attach(db)
		inj := fault.New(fault.Plan{
			Seed:              s,
			PCrashAtMigration: *pMigration,
			PCrashAtUpdate:    *pUpdate,
			PTornForce:        *pTorn,
			PCrashInRecovery:  *pRecovery,
			PCoordinatorCrash: *pCoordinator,
			PIOError:          *pIOError,
			MaxCrashes:        *maxCrashes,
		})
		spec := workload.Spec{
			TxnsPerNode:     *txns,
			OpsPerTxn:       *ops,
			ReadFraction:    0.4,
			SharingFraction: *sharing,
			Seed:            s,
		}
		var sess *sched.Session
		if obsFlags.Record != "" {
			sess = sched.NewRecorder()
		}
		res, err := workload.RunChaosSession(db, inj, spec, *episodes, sess)
		if err != nil {
			failed++
			fmt.Printf("seed %d: harness error: %v\n", s, err)
			saveSchedule(obsFlags, sess, s, &recorded)
			continue
		}
		if len(res.Violations) > 0 {
			violating++
			saveSchedule(obsFlags, sess, s, &recorded)
		}
		verdicts += res.Verdicts
		doomed += res.DoomedVerdicts
		auditViolations += res.AuditViolations
		auditAnomalies += res.AuditAnomalies
		if res.AuditViolations > 0 {
			auditSeeds++
		}
		if len(res.ExplainMismatches) > 0 {
			// The dependency explainer and the IFA checker disagreeing is a
			// harness bug regardless of the protocol under test.
			mismatched++
			fmt.Printf("seed %d: explainer/checker mismatch:\n", s)
			for _, m := range res.ExplainMismatches {
				fmt.Printf("  %s\n", m)
			}
		}
		if *verbose || (len(res.Violations) > 0 && !*broken) {
			fmt.Printf("%s\n", res)
			for _, v := range res.Violations {
				fmt.Printf("  %s\n", v)
			}
		}
	}
	if verdicts > 0 {
		fmt.Printf("explainer: %d verdicts, %d doomed survivors, %d seeds with checker mismatches\n",
			verdicts, doomed, mismatched)
	}
	if obsFlags.Audit {
		fmt.Printf("online auditor: %d violation(s) on %d seed(s), %d watchdog anomaly(ies)\n",
			auditViolations, auditSeeds, auditAnomalies)
	}
	if recorded > 0 {
		fmt.Printf("recorder: %d failing schedule(s) under %s\n", recorded, obsFlags.Record)
	}
	if dumps := stack.Flight.Dumps(); len(dumps) > 0 {
		fmt.Printf("flight recorder: %d dumps under %s\n", len(dumps), obsFlags.FlightDir)
	}
	if err := stack.Finish(os.Stdout); err != nil {
		fatal(err)
	}

	if failed > 0 {
		fmt.Printf("FAIL: %d/%d seeds hit harness errors\n", failed, *seeds)
		os.Exit(1)
	}
	if mismatched > 0 {
		fmt.Printf("FAIL: explainer/checker mismatches on %d/%d seeds\n", mismatched, *seeds)
		os.Exit(1)
	}
	if *broken {
		if violating == 0 {
			fmt.Printf("FAIL: the %s negative control produced no IFA violation over %d seeds — the harness is blind\n", proto, *seeds)
			os.Exit(1)
		}
		if obsFlags.Audit && auditViolations == 0 {
			fmt.Printf("FAIL: the checker caught the broken %s protocol but the online auditor stayed silent\n", proto)
			os.Exit(1)
		}
		fmt.Printf("PASS: caught the broken %s protocol on %d/%d seeds\n", proto, violating, *seeds)
		return
	}
	if violating > 0 {
		fmt.Printf("FAIL: IFA violations on %d/%d seeds\n", violating, *seeds)
		os.Exit(1)
	}
	if auditViolations > 0 {
		fmt.Printf("FAIL: the online auditor raised %d violation(s) on %d/%d seeds\n", auditViolations, auditSeeds, *seeds)
		os.Exit(1)
	}
	fmt.Printf("PASS: zero IFA violations over %d seeds x %d episodes\n", *seeds, *episodes)
}

// newChaosDB builds the standard chaos database configuration.
func newChaosDB(proto recovery.Protocol, nodes int, ablateGate bool) (*recovery.DB, error) {
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: 4096},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          16,
		LockTableLines: 128,
	})
	if err != nil {
		return nil, err
	}
	if ablateGate {
		db.M.SetInstallGate(nil)
	}
	return db, nil
}

// saveSchedule writes a failing seed's recorded schedule, if recording.
func saveSchedule(obsFlags *obscli.Flags, sess *sched.Session, s int64, recorded *int) {
	if sess == nil {
		return
	}
	path, err := obsFlags.SaveSchedule(sess, fmt.Sprintf("seed%d", s))
	if err != nil {
		fmt.Printf("seed %d: writing schedule: %v\n", s, err)
		return
	}
	*recorded++
	fmt.Printf("seed %d: schedule recorded to %s\n", s, path)
}

// scheduleEnv reconstructs the replay environment a schedule file describes:
// protocol, node count, workload spec, and injector plan.
func scheduleEnv(sch *sched.Schedule) (recovery.Protocol, workload.Spec, fault.Plan, error) {
	proto, ok := recovery.ParseProtocol(sch.Protocol)
	if !ok {
		return 0, workload.Spec{}, fault.Plan{}, fmt.Errorf("schedule names unknown protocol %q", sch.Protocol)
	}
	rs := sch.Spec
	if rs == nil {
		return 0, workload.Spec{}, fault.Plan{}, fmt.Errorf("schedule carries no workload spec (recorded by an older build?)")
	}
	spec := workload.Spec{
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
	// Probabilities are irrelevant on replay (draws come from the schedule);
	// the guard knobs the injector consults outside its draws must match.
	plan := fault.Plan{
		Seed:         sch.FaultSeed,
		MaxCrashes:   rs.MaxCrashes,
		MinAlive:     rs.MinAlive,
		IOErrorBurst: rs.IOErrorBurst,
		PIOError:     rs.PIOError,
	}
	return proto, spec, plan, nil
}

// runReplay re-executes one recorded schedule and checks the outcome
// against what the schedule recorded.
func runReplay(obsFlags *obscli.Flags, stack *obscli.Stack, ablateGate bool) {
	sch, err := obsFlags.LoadSchedule()
	if err != nil {
		fatal(err)
	}
	proto, spec, plan, err := scheduleEnv(sch)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay: %s protocol=%s nodes=%d episodes=%d seed=%d faultSeed=%d",
		obsFlags.Replay, proto, sch.Nodes, len(sch.Episodes), sch.Seed, sch.FaultSeed)
	if sch.FailEpisode >= 0 {
		fmt.Printf(" (recorded failure in episode %d, seed %d)", sch.FailEpisode, sch.FailSeed)
	}
	fmt.Println()

	db, err := newChaosDB(proto, sch.Nodes, ablateGate || sch.Spec.AblateInstallGate)
	if err != nil {
		fatal(err)
	}
	stack.Attach(db)
	res, err := workload.RunChaosSession(db, fault.New(plan), spec, 0, sched.NewReplayer(sch))
	if finErr := stack.Finish(os.Stdout); finErr != nil {
		fatal(finErr)
	}
	if err != nil {
		fmt.Printf("FAIL: %v\n", err)
		if strings.Contains(err.Error(), "diverged") {
			fmt.Println("      (divergence means the engine no longer follows this schedule —")
			fmt.Println("       e.g. the bug it pinned is fixed, or the build/config changed)")
		}
		os.Exit(1)
	}
	fmt.Printf("%s\n", res)
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	expectFail := sch.FailEpisode >= 0
	gotFail := len(res.Violations) > 0
	switch {
	case expectFail && !gotFail:
		fmt.Println("FAIL: the schedule recorded IFA violations but the replay stayed clean")
		os.Exit(1)
	case !expectFail && gotFail:
		fmt.Println("FAIL: the schedule recorded a clean run but the replay violated IFA")
		os.Exit(1)
	case expectFail:
		fmt.Println("PASS: reproduced the recorded violation deterministically")
	default:
		fmt.Println("PASS: reproduced the recorded clean run")
	}
}

// runShrink minimizes a failing schedule.
func runShrink(path, outPath string, ablateGate bool) {
	sch, err := sched.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	proto, spec, plan, err := scheduleEnv(sch)
	if err != nil {
		fatal(err)
	}
	if outPath == "" {
		outPath = strings.TrimSuffix(path, ".json") + ".min.json"
	}
	ablateGate = ablateGate || sch.Spec.AblateInstallGate
	env := workload.ShrinkEnv{
		NewDB: func() (*recovery.DB, error) {
			return newChaosDB(proto, sch.Nodes, ablateGate)
		},
		NewInjector: func() *fault.Injector { return fault.New(plan) },
		Spec:        spec,
		// Shrink candidates diverge routinely; a short watchdog keeps the
		// delta-debugging loop fast.
		Watchdog: 3 * time.Second,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	min, rep, err := workload.Shrink(env, sch)
	if err != nil {
		fmt.Printf("FAIL: %v\n", err)
		fmt.Println("      (-shrink needs a schedule whose replay still violates IFA;")
		fmt.Println("       capture one with -record, with -ablate-install-gate if minimizing the fixed lost-write race;")
		fmt.Println("       a schedule that does not say ablateInstallGate in its spec was recorded with the gate")
		fmt.Println("       in place, or by an older build: give -ablate-install-gate again if it was ablated)")
		os.Exit(1)
	}
	if err := min.WriteFile(outPath); err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", rep)
	fmt.Printf("PASS: minimized schedule written to %s\n", outPath)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "smdb-chaos: %v\n", err)
	os.Exit(1)
}
