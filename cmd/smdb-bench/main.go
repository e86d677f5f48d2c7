// Command smdb-bench runs the experiments that regenerate the paper's
// table, measured numbers, and quantitative claims (DESIGN.md experiment
// index; harness.Experiments), printing each as an aligned text table.
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
	"smdb/internal/obscli"
)

func expNames() []string {
	names := make([]string, 0, len(harness.Experiments)+1)
	names = append(names, "all")
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
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
	obsFlags := obscli.AddFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if err := obsFlags.RejectSched("smdb-bench"); err != nil {
		fmt.Fprintf(os.Stderr, "smdb-bench: %v\n", err)
		os.Exit(1)
	}
	known := *exp == "all"
	for _, e := range harness.Experiments {
		if e.Name == *exp {
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
	for _, e := range harness.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		fmt.Printf("\n=== %s: %s\n    (paper: %s)\n\n", e.ID, e.Title, e.Source)
		table, err := e.Run(*seed, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smdb-bench: %s: %v\n", e.Name, err)
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
