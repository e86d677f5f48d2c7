// Package obscli is the one place the commands wire the observability
// stack: every cmd calls AddFlags for the shared -trace / -metrics / -http /
// -flightdir / -audit flag set, Build to materialise the enabled pieces,
// Attach on each recovery.DB it constructs, and Finish at exit. Keeping the
// wiring here means the three binaries cannot drift apart in which
// observability surface they expose.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/sched"
)

// Flags holds the parsed shared observability flags. Zero values mean the
// corresponding surface stays off; with every flag off Build returns a stack
// whose Attach and Finish are no-ops, so callers never branch.
type Flags struct {
	Trace     string        // -trace: Chrome trace-event JSON output path
	Metrics   bool          // -metrics: print the metrics table at exit
	HTTP      string        // -http: live introspection listen address
	HTTPHold  time.Duration // -httphold: keep serving this long after the run
	FlightDir string        // -flightdir: crash flight-recorder dump root
	FlightN   int           // -flightn: per-node event tail in each dump
	Audit     bool          // -audit: per-txn trails + online IFA auditor + time series
	Window    time.Duration // -window: audit time-series window width (simulated time)
	Prof      bool          // -prof: the Go runtime's mutex and block profiles
	Waterfall bool          // -waterfall: per-txn latency waterfalls + tail sampler + recovery progress
	SlowK     int           // -slowk: slowest transactions retained per sampler window
	Debt      bool          // -debt: live recovery-debt tracker + MTTR accounting (/recovery/debt)

	// Record / Replay are the chaos schedule flags, shared here so the
	// spelling cannot drift across binaries. Record is a directory recorded
	// schedules are written under; Replay is one schedule file to re-execute
	// deterministically. Only the chaos driver honours them: the other
	// commands' drivers are seed-deterministic already and reject the flags
	// via RejectSched.
	Record string // -record: write recorded chaos schedules under this directory
	Replay string // -replay: replay a recorded chaos schedule file
}

// AddFlags registers the shared observability flag set on fs (the command's
// flag.CommandLine in practice) and returns the destination struct; read it
// after fs.Parse.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the observability metrics after the run")
	fs.StringVar(&f.HTTP, "http", "", "serve live introspection (/metrics /trace /deps /audit /timeseries /healthz /debug/pprof) on this address, e.g. 127.0.0.1:8321")
	fs.DurationVar(&f.HTTPHold, "httphold", 0, "keep the -http server alive this long after the run finishes (SIGINT/SIGTERM ends the hold early)")
	fs.StringVar(&f.FlightDir, "flightdir", "", "write crash flight-recorder dumps under this directory")
	fs.IntVar(&f.FlightN, "flightn", obs.DefaultFlightEvents, "events retained per node in each flight dump")
	fs.BoolVar(&f.Audit, "audit", false, "per-transaction audit trails, the online IFA auditor, and windowed time-series metrics")
	fs.DurationVar(&f.Window, "window", time.Millisecond, "audit time-series window width, in simulated time")
	fs.BoolVar(&f.Prof, "prof", false, "host lock contention: arm the Go runtime's mutex and block profiles (/debug/pprof/mutex, /debug/pprof/block) and write mutex.pprof and block.pprof at exit")
	fs.BoolVar(&f.Waterfall, "waterfall", false, "per-transaction latency waterfalls with tail-sampled causal traces and live recovery progress (/slow, /recovery/progress)")
	fs.IntVar(&f.SlowK, "slowk", 0, "slowest transactions retained per waterfall sampler window (0 = default 8)")
	fs.BoolVar(&f.Debt, "debt", false, "live recovery-debt tracker: log debt per node, MTTR accounting, and estimated replay time (/recovery/debt)")
	fs.StringVar(&f.Record, "record", "", "record chaos schedules (one JSON per seed) under this directory")
	fs.StringVar(&f.Replay, "replay", "", "replay a recorded chaos schedule file deterministically")
	return f
}

// SchedCheck validates the record/replay flag combination and prepares the
// -record directory. Call after Parse, before any run.
func (f *Flags) SchedCheck() error {
	if f.Record != "" && f.Replay != "" {
		return fmt.Errorf("-record and -replay are mutually exclusive")
	}
	if f.Record != "" {
		if err := os.MkdirAll(f.Record, 0o755); err != nil {
			return fmt.Errorf("-record: %w", err)
		}
	}
	return nil
}

// LoadSchedule reads the -replay schedule file.
func (f *Flags) LoadSchedule() (*sched.Schedule, error) {
	sch, err := sched.ReadFile(f.Replay)
	if err != nil {
		return nil, fmt.Errorf("-replay: %w", err)
	}
	return sch, nil
}

// SaveSchedule writes a recording session's schedule as <name>.json under
// the -record directory and returns the path.
func (f *Flags) SaveSchedule(sess *sched.Session, name string) (string, error) {
	path := filepath.Join(f.Record, name+".json")
	if err := sess.Schedule().WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// RejectSched errors out when the chaos record/replay flags reach a command
// whose drivers are already deterministic from their seeds.
func (f *Flags) RejectSched(cmd string) error {
	if f.Record != "" || f.Replay != "" {
		return fmt.Errorf("-record/-replay drive the concurrent chaos harness; use smdb-chaos (%s runs are seed-deterministic already)", cmd)
	}
	return nil
}

// Enabled reports whether any observability surface was requested.
func (f *Flags) Enabled() bool {
	return f.Trace != "" || f.Metrics || f.HTTP != "" || f.FlightDir != "" || f.Audit || f.Prof || f.Waterfall || f.Debt
}

// Stack is the assembled observability stack for one command run. The
// commands that sweep seeds build a fresh recovery.DB per seed; the stack's
// observer, flight recorder, and HTTP server outlive every DB, while the
// other consumers are per-DB: Attach builds a fresh hook set for each and
// keeps the latest, which is what the HTTP endpoints and Finish render.
type Stack struct {
	Obs    *obs.Observer
	Flight *obs.FlightRecorder
	HTTP   *obs.HTTPServer
	flags  *Flags
	cur    atomic.Pointer[hooks.Set]

	holdStop chan struct{}
	holdOnce sync.Once
	holding  atomic.Bool
}

// Hooks returns the consumer set from the most recent Attach, each consumer
// nil unless its flag is on. Before the first Attach it holds only the
// stack's own observer and flight recorder; a disabled stack's is empty.
func (s *Stack) Hooks() *hooks.Set {
	if h := s.cur.Load(); h != nil {
		return h
	}
	return new(hooks.Set)
}

// BlockProfileRate is the block profile's sampling rate under -prof: on
// average one blocking event is recorded per this many nanoseconds spent
// blocked, and every event at least this long, so the profile does not take a
// stack for each of the many short waits one by one (DESIGN.md §9).
const BlockProfileRate = 100_000

// Build assembles the stack the flags ask for. With nothing enabled it
// returns an inert stack: Obs stays nil, so every engine-side hook keeps its
// nil-receiver fast path. Build fails only on unusable -http / -flightdir
// values, before any workload runs.
func (f *Flags) Build() (*Stack, error) {
	s := &Stack{flags: f, holdStop: make(chan struct{})}
	if !f.Enabled() {
		return s, nil
	}
	s.Obs = obs.New()
	if f.Prof {
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(BlockProfileRate)
	}
	if f.FlightDir != "" {
		if err := os.MkdirAll(f.FlightDir, 0o755); err != nil {
			return nil, fmt.Errorf("-flightdir: %w", err)
		}
		s.Flight = obs.NewFlightRecorder(f.FlightDir, f.FlightN)
	}
	s.cur.Store(&hooks.Set{Observer: s.Obs, Flight: s.Flight})
	if f.HTTP != "" {
		srv, err := obs.ServeHTTP(f.HTTP, func() obs.Sources { return s.Hooks().Sources() })
		if err != nil {
			return nil, fmt.Errorf("-http: %w", err)
		}
		s.HTTP = srv
		fmt.Fprintf(os.Stderr, "introspection: http://%s/ (metrics, trace, deps, audit, timeseries, healthz, pprof)\n", srv.Addr)
	}
	return s, nil
}

// Attach builds the hook set the flags ask for — the stack's observer and
// flight recorder plus a fresh dependency tracker (echoing edges back into
// the observer's event stream), auditor, waterfall recorder and debt
// tracker, each sized for db — and attaches it to db in one step.
// Safe to call once per DB in a sweep; the stack's aggregate surfaces (HTTP,
// trace file) keep accumulating across them. The returned tracker is nil
// when the stack is disabled — every call site is nil-safe.
func (s *Stack) Attach(db *recovery.DB) *deps.Tracker {
	if s.Obs == nil {
		return nil
	}
	set := hooks.Set{Observer: s.Obs, Deps: deps.New(s.Obs), Flight: s.Flight}
	if s.flags.Audit {
		set.Audit = audit.New(set.Deps, audit.Config{
			// Stable protocols promise stable coverage at exposure — but
			// only write-invalidate coherency funnels every exposure
			// through the trigger/eager force paths; under write-broadcast
			// the sharers see stores directly and the honest invariant is
			// volatile coverage.
			Stable: db.Cfg.Protocol.StableLBM() &&
				db.M.Config().Coherency == machine.WriteInvalidate,
			WindowNS: s.flags.Window.Nanoseconds(),
		})
	}
	if s.flags.Waterfall {
		set.Waterfall = waterfall.New(waterfall.Config{
			TopK:  s.flags.SlowK,
			Nodes: db.M.Nodes(),
		})
	}
	if s.flags.Debt {
		set.Debt = debt.New(debt.Config{
			DiskReadNS: db.M.Config().Cost.DiskRead,
			LogForceNS: db.LogForceCost(),
		})
		if s.Flight != nil {
			// Capture the raw per-node WAL devices in every dump so
			// smdb-waldump can run offline forensics on the exact log state
			// at crash time.
			for _, l := range db.Logs {
				dev := l.Device()
				s.Flight.SetAux(fmt.Sprintf("wal-node%d.wal", l.Node()), func(w io.Writer) error {
					_, err := w.Write(dev.Contents())
					return err
				})
			}
		}
	}
	db.Attach(set)
	s.cur.Store(db.Hooks())
	return set.Deps
}

// StopHold ends an in-progress -httphold grace period early (used by hosts
// embedding the stack and by tests; SIGINT/SIGTERM have the same effect).
// Safe to call at any time, at most once effective.
func (s *Stack) StopHold() {
	s.holdOnce.Do(func() {
		if s.holdStop != nil {
			close(s.holdStop)
		}
	})
}

// Holding reports whether Finish is currently inside the -httphold grace
// period (it flips true only after the signal handler is armed).
func (s *Stack) Holding() bool { return s.holding.Load() }

// holdWait blocks for the -httphold duration, ending early on SIGINT or
// SIGTERM (so a held introspection server shuts down cleanly on ctrl-c
// instead of dying mid-request) or on StopHold.
func (s *Stack) holdWait(d time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	timer := time.NewTimer(d)
	defer timer.Stop()
	s.holding.Store(true)
	defer s.holding.Store(false)
	select {
	case <-timer.C:
	case <-sig:
		fmt.Fprintln(os.Stderr, "introspection: interrupted, shutting down")
	case <-s.holdStop:
	}
}

// Finish emits the end-of-run surfaces: the metrics table when -metrics, the
// audit summary when -audit, mutex.pprof and block.pprof when -prof, the
// Chrome trace file when -trace, and an -httphold grace period —
// interruptible by SIGINT/SIGTERM — before the introspection server shuts
// down. Call exactly once, after the workload.
func (s *Stack) Finish(out io.Writer) error {
	if s.Obs == nil {
		return nil
	}
	if s.flags.Metrics {
		fmt.Fprintln(out)
		if err := s.Obs.MetricsTable(out); err != nil {
			return err
		}
	}
	cur := s.Hooks()
	if a := cur.Audit; a != nil {
		sum := a.Summary()
		fmt.Fprintf(out, "audit: %d violation(s), %d anomaly(ies) over %d window(s), %d trail(s) completed (%d live)\n",
			sum.Violations, sum.Anomalies, sum.Windows, sum.Completed, sum.Active)
		for k, n := range sum.ViolationsByKind {
			fmt.Fprintf(out, "  %s: %d\n", k, n)
		}
	}
	if s.flags.Prof {
		if err := writeContentionProfiles(); err != nil {
			return err
		}
	}
	if w := cur.Waterfall; w != nil {
		fmt.Fprintln(out, w.Summary())
	}
	if d := cur.Debt; d != nil {
		fmt.Fprintln(out, d.Summary())
	}
	if s.flags.Trace != "" {
		f, err := os.Create(s.flags.Trace)
		if err != nil {
			return err
		}
		if err := s.Obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (load at ui.perfetto.dev)\n", s.flags.Trace)
	}
	if s.HTTP != nil {
		if s.flags.HTTPHold > 0 {
			fmt.Fprintf(os.Stderr, "introspection: holding http://%s/ for %s (ctrl-c to stop)\n", s.HTTP.Addr, s.flags.HTTPHold)
			s.holdWait(s.flags.HTTPHold)
		}
		s.HTTP.Shutdown()
	}
	return nil
}

// writeContentionProfiles writes the runtime's mutex and block profiles to
// the working directory: where host goroutines waited on each other, by call
// site. -prof armed both at Build.
func writeContentionProfiles() error {
	for _, name := range []string{"mutex", "block"} {
		f, err := os.Create(name + ".pprof")
		if err != nil {
			return err
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "prof: wrote mutex.pprof block.pprof (go tool pprof -top -cum mutex.pprof)")
	return nil
}

// PrintVerdicts renders the explainer verdicts accumulated by the current
// dependency tracker — the per-transaction crash-time story (crashed victim
// log coverage, survivor loss coverage, doomed unlogged dependencies). A
// disabled stack prints nothing.
func (s *Stack) PrintVerdicts(out io.Writer) {
	t := s.Hooks().Deps
	if t == nil {
		return
	}
	vs := t.Verdicts()
	if len(vs) == 0 {
		return
	}
	fmt.Fprintf(out, "\ndependency explainer (%d verdicts):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(out, "  %s\n", v.Text)
		for _, e := range v.Evidence {
			fmt.Fprintf(out, "    %s\n", e)
		}
	}
}
