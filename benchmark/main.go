// Command benchmark is smdb's benchmark: five named workloads, each a cycle
// of a timed forward round and a timed crash / restart recovery on a fresh
// 4-node DB. The untraced pass runs every cycle on the live engine and on a
// frozen reference copy of it (refengine/) and reports the end-to-end
// timings as ratios of the two; the traced pass reports per-layer metrics
// measured from outside the live engine. See README.md.
//
//	go run -C benchmark . --workload fwd-private --seed 1 --seconds 12 --trace 0
//	go run -C benchmark . -seed 1 -out out            # all workloads, both passes
//	go run -C benchmark . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// envRecord says where and how a result was measured.
type envRecord struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGCEnv    string  `json:"gogc_env"`
	GC         string  `json:"gc"`
	Started    string  `json:"started"`
}

// methodRecord repeats the fixed method next to the numbers it produced.
type methodRecord struct {
	Nodes, Pages, LinesPerPage, RecsPerLine, LockTableLines int
	OpsPerTxn, MaxAttempts                                  int
	InflightPerNode, InflightWrites, CrashNode              int
	WarmupCycles, MinCycles, WedgeLimitSecs                 int
	Loop                                                    string
}

type resultFile struct {
	Env    envRecord     `json:"env"`
	Method methodRecord  `json:"method"`
	Passes []*passResult `json:"passes"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var o runOpts
	workload := flag.String("workload", "all", "workload name, or all")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), -1: both")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; cycle r uses seed+r")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds of measured cycles per pass")
	flag.StringVar(&o.out, "out", "out", "directory for result, trace and wedge files")
	flag.IntVar(&o.clients, "clients", 0, "client goroutines of the fwd-* workloads (0: min(GOMAXPROCS, 4))")
	flag.BoolVar(&o.quick, "quick", false, "two measured cycles per pass, no warm-up")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if err := run(*workload, *trace, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, trace int, o runOpts) error {
	defs := workloads
	if workload != "all" {
		w, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = []workloadDef{w}
	}
	traces := []bool{false, true}
	switch trace {
	case -1:
	case 0, 1:
		traces = []bool{trace == 1}
	default:
		return fmt.Errorf("-trace %d, want 0, 1 or -1", trace)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	// The collector runs only where a cycle forces it (end of set-up, just
	// before the crash), never inside a timed window: its pacing on the
	// small fresh heap of each cycle was the largest source of run-to-run
	// noise. Allocation is gated by count instead (allocs_per_*).
	debug.SetGCPercent(-1)
	rf := resultFile{
		Env: envRecord{
			Commit: commit(), Seed: o.seed, Seconds: o.seconds, NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOGCEnv: os.Getenv("GOGC"),
			GC: "off inside timed windows; runtime.GC() at the end of set-up and before the crash", Started: time.Now().UTC().Format(time.RFC3339),
		},
		Method: methodRecord{
			Nodes: nodes, Pages: pages, LinesPerPage: linesPerPage, RecsPerLine: recsPerLine, LockTableLines: lockTableLines,
			OpsPerTxn: opsPerTxn, MaxAttempts: maxAttempts,
			InflightPerNode: inflightPerNode, InflightWrites: inflightWrites, CrashNode: crashNode,
			WarmupCycles: warmupCycles, MinCycles: minCycles, WedgeLimitSecs: wedgeLimitSecs,
			Loop: "closed: a client issues its next transaction only after the previous one returned",
		},
	}
	for _, w := range defs {
		for _, tr := range traces {
			o.trace = tr
			pr, _, err := runPass(w, o)
			if err != nil {
				return err
			}
			rf.Passes = append(rf.Passes, pr)
			printPass(pr)
			if !pr.Correct {
				// Correctness is a hard check, and a wedged round may have
				// left clients behind: stop here.
				return printFinal(rf.Passes)
			}
		}
	}
	name := fmt.Sprintf("result-%s-trace%d.json", workload, trace)
	if workload == "all" && trace == -1 {
		name = "result.json"
	}
	if err := writeJSON(filepath.Join(o.out, name), rf); err != nil {
		return err
	}
	return printFinal(rf.Passes)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printPass prints every metric of a pass by name, with its unit.
func printPass(pr *passResult) {
	pass := "untraced"
	if pr.Trace {
		pass = "traced"
	}
	fmt.Printf("== %s  %s  %s pass  clients=%d cycles=%d wall=%.1fs  correct=%v attempted=%d failed=%d\n",
		pr.Workload, pr.Protocol, pass, pr.Clients, pr.Cycles, pr.WallS, pr.Correct, pr.Attempted, pr.Failed)
	for _, e := range pr.Errors {
		fmt.Println("   !!", e)
	}
	for _, d := range endToEnd {
		if r, ok := pr.Raw[d.Name]; ok {
			fmt.Printf("   host clock: %-28s %16.4f %-6s on the live engine, %.4f on the reference engine\n", strings.TrimSuffix(d.Name, "_rel"), r.Live, r.Unit, r.Ref)
		}
	}
	for _, n := range sortedNames(pr.Metrics) {
		m := pr.Metrics[n]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", m.Bound*100)
		}
		fmt.Printf("   %-40s %16.4f %-6s (%s is better, n=%d)%s\n", n, m.Value, m.Unit, m.Better, m.Samples, bound)
	}
}

// printFinal prints the one-line JSON summary a driver reads: for a single
// pass, exactly that pass's metrics by name; for several, each name is
// prefixed with its workload. Any incorrect pass is an error.
func printFinal(passes []*passResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]mv)}
	for _, pr := range passes {
		final.Correct = final.Correct && pr.Correct
		final.Attempted += pr.Attempted
		final.Failed += pr.Failed
		for n, m := range pr.Metrics {
			if len(passes) > 1 {
				n = pr.Workload + ":" + n
			}
			final.Metrics[n] = mv{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !final.Correct {
		return fmt.Errorf("incorrect: %d of %d operations failed or a correctness check did not hold", final.Failed, final.Attempted)
	}
	return nil
}
