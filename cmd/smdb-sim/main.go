// Command smdb-sim runs a transaction workload on the simulated
// shared-memory multiprocessor, crashes nodes mid-flight, runs restart
// recovery, and verifies Isolated Failure Atomicity — a one-shot
// demonstration of the paper's protocols under any configuration.
//
// Usage:
//
//	smdb-sim [-nodes 8] [-protocol volatile-selective] [-crash 3,5]
//	         [-sharing 0.6] [-recsperline 4] [-coherency invalidate]
//	         [-txns 8] [-ops 10] [-seed 1]
//	         [-trace out.json] [-metrics] [-http 127.0.0.1:8321]
//	         [-httphold 30s] [-flightdir dumps/] [-audit] [-window 1ms]
//
// The observability flags are the shared set (internal/obscli): -trace
// writes the run as Chrome trace-event JSON (load it at ui.perfetto.dev),
// -metrics prints the latency histograms and event counts, -http serves the
// live introspection endpoints while the run executes, and -flightdir
// enables crash flight-recorder dumps. -audit arms the online IFA auditor
// (per-transaction audit trails, continuous logging-before-migration
// checks, and -window-bucketed time-series metrics with the anomaly
// watchdog), served at /audit/txn, /audit/violations, and /timeseries and
// summarized after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obscli"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

var protocols = map[string]recovery.Protocol{
	"baseline":           recovery.BaselineFA,
	"volatile-redoall":   recovery.VolatileRedoAll,
	"volatile-selective": recovery.VolatileSelectiveRedo,
	"stable-eager":       recovery.StableEager,
	"stable-triggered":   recovery.StableTriggered,
	"ablated":            recovery.AblatedNoLBM,
}

func main() {
	nodes := flag.Int("nodes", 8, "number of processor/memory pairs")
	protoName := flag.String("protocol", "volatile-selective", "baseline | volatile-redoall | volatile-selective | stable-eager | stable-triggered | ablated")
	crashSpec := flag.String("crash", "", "comma-separated node IDs to crash mid-flight (default: the last node)")
	sharing := flag.Float64("sharing", 0.6, "fraction of operations on shared records")
	recsPerLine := flag.Int("recsperline", 4, "records per 128-byte cache line")
	coherency := flag.String("coherency", "invalidate", "invalidate | broadcast")
	chained := flag.Bool("chained", false, "multi-line (chained) lock control blocks")
	txns := flag.Int("txns", 8, "transactions per node")
	ops := flag.Int("ops", 10, "operations per transaction")
	seed := flag.Int64("seed", 1, "workload seed")
	obsFlags := obscli.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.RejectSched("smdb-sim"); err != nil {
		fatal(err)
	}
	proto, ok := protocols[*protoName]
	if !ok {
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}
	coh := machine.WriteInvalidate
	if *coherency == "broadcast" {
		coh = machine.WriteBroadcast
	}
	crash := []machine.NodeID{machine.NodeID(*nodes - 1)}
	if *crashSpec != "" {
		crash = crash[:0]
		for _, part := range strings.Split(*crashSpec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 || n >= *nodes {
				fatal(fmt.Errorf("bad -crash entry %q", part))
			}
			crash = append(crash, machine.NodeID(n))
		}
	}

	db, err := recovery.New(recovery.Config{
		Machine:     machine.Config{Nodes: *nodes, Coherency: coh},
		Protocol:    proto,
		RecsPerLine: *recsPerLine,
		Pages:       32,
		ChainedLCBs: *chained,
	})
	if err != nil {
		fatal(err)
	}
	stack, err := obsFlags.Build()
	if err != nil {
		fatal(err)
	}
	stack.Attach(db)
	fmt.Printf("machine: %d nodes, %s coherency, %d records per %dB line\n",
		*nodes, coh, *recsPerLine, db.M.LineSize())
	fmt.Printf("protocol: %s (IFA: %v)\n", proto, proto.IFA())
	fmt.Printf("seed: %d (rerun with -seed %d to reproduce)\n\n", *seed, *seed)

	if err := workload.Seed(db, 0); err != nil {
		fatal(err)
	}
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: *txns, OpsPerTxn: *ops,
		ReadFraction: 0.4, SharingFraction: *sharing, Seed: *seed,
	})
	// Run enough steps that every node has a transaction in flight.
	mid, err := r.RunUntilMidFlight(*ops * *txns / 2)
	if err != nil {
		fatal(err)
	}
	active := db.ActiveTxns(machine.NoNode)
	fmt.Printf("workload: %s\n", mid)
	fmt.Printf("in flight at crash: %d transactions across %d nodes\n\n", len(active), *nodes)

	rep := db.Crash(crash...)
	fmt.Printf("CRASH of node(s) %v: %d cache lines destroyed, %d orphaned on survivors\n",
		rep.Crashed, len(rep.LostLines), len(rep.OrphanedLines))

	rec, err := db.Recover(crash)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovery (%s):\n", rec.Protocol)
	fmt.Printf("  aborted transactions : %d %v\n", len(rec.Aborted), rec.Aborted)
	fmt.Printf("  redo applied/skipped : %d/%d\n", rec.RedoApplied, rec.RedoSkipped)
	fmt.Printf("  undo applied         : %d\n", rec.UndoApplied)
	fmt.Printf("  tag-scan lines       : %d\n", rec.TagScanLines)
	fmt.Printf("  LCBs reinstalled     : %d, lock entries released: %d, locks replayed: %d\n",
		rec.LCBsReinstalled, rec.LockEntriesReleased, rec.LocksReplayed)
	fmt.Printf("  simulated duration   : %.2fms\n", float64(rec.SimTime)/1e6)
	fmt.Printf("  phase breakdown      : %s\n\n", obs.FormatPhases(rec.Phases))

	alive := db.M.AliveNodes()
	if len(alive) == 0 {
		fmt.Println("no survivors (whole machine crashed)")
		if err := stack.Finish(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	violations := db.CheckIFA(alive[0])
	if len(violations) > 0 {
		if dir, err := db.DumpFlight("ifa-violation"); err == nil && dir != "" {
			fmt.Fprintf(os.Stderr, "flight recorder: dumped %s\n", dir)
		}
	}
	exitCode := 0
	switch {
	case len(violations) == 0 && proto.IFA():
		fmt.Println("IFA check: PASS — crashed transactions fully undone, surviving transactions untouched")
	case len(violations) == 0 && proto == recovery.BaselineFA:
		fmt.Println("IFA check: PASS (vacuously — the baseline aborted every transaction in the system)")
	case len(violations) == 0:
		fmt.Println("IFA check: PASS (this run dodged the no-LBM hazards; see smdb-bench -exp ablation for the deterministic failure)")
	case proto.IFA():
		fmt.Printf("IFA check: FAIL (%d violations)\n", len(violations))
		for _, v := range violations {
			fmt.Printf("  %s\n", v)
		}
		exitCode = 1
	default:
		fmt.Printf("IFA check: FAIL as expected for %s (%d violations) — the hazards LBM exists to prevent:\n", proto, len(violations))
		for _, v := range violations {
			fmt.Printf("  %s\n", v)
		}
	}
	stack.PrintVerdicts(os.Stdout)
	st := db.M.Stats()
	fmt.Printf("\ncoherency traffic: %d migrations, %d downgrades, %d invalidations, %d lines lost\n",
		st.Migrations, st.Downgrades, st.Invalidations, st.LinesLost)

	if err := stack.Finish(os.Stdout); err != nil {
		fatal(err)
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "smdb-sim: %v\n", err)
	os.Exit(1)
}
