package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// worsening is how much worse b is than a, as a share of a, given which
// direction is better; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every end-to-end metric of every workload both
// files hold, how much worse B is than A against the metric's bound, and
// returns the exit code: 1 if any metric is worse by more than its bound or
// a pass failed more operations (failed_frac may rise by 0.001 at most).
func compareFiles(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return 2
	}
	return compareResults(a, b)
}

func compareResults(a, b *resultFile) int {
	untraced := func(rf *resultFile) map[string]*passResult {
		m := make(map[string]*passResult)
		for _, p := range rf.Passes {
			if !p.Trace {
				m[p.Workload] = p
			}
		}
		return m
	}
	pa, pb := untraced(a), untraced(b)
	code, rows := 0, 0
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range workloads {
		x, y := pa[w.Name], pb[w.Name]
		if x == nil || y == nil {
			continue
		}
		for _, d := range endToEnd {
			mx, okx := x.Metrics[d.Name]
			my, oky := y.Metrics[d.Name]
			if !okx || !oky {
				continue
			}
			rows++
			wr := worsening(mx.Value, my.Value, d.Better)
			verdict := ""
			if wr > d.Bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Printf("%-18s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.Name, d.Name, mx.Value, my.Value, wr*100, d.Bound*100, verdict)
		}
		rows++
		verdict := ""
		if y.FailedFrac > x.FailedFrac+0.001 || !y.Correct {
			verdict, code = "  EXCEEDS", 1
		}
		fmt.Printf("%-18s %-24s %14.6f %14.6f %9s %7s%s\n", w.Name, "failed_frac", x.FailedFrac, y.FailedFrac, "", "+0.001", verdict)
	}
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: compare: the files share no untraced pass")
		return 2
	}
	return code
}
