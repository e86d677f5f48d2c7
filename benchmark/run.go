package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// metricValue is one reported number. Samples is the count behind a median
// or percentile.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples"`
}

// passResult is one pass (untraced or traced) of one workload.
type passResult struct {
	Workload    string                 `json:"workload"`
	Protocol    string                 `json:"protocol"`
	Trace       bool                   `json:"trace"`
	Clients     int                    `json:"clients"`
	TxnsPerNode int                    `json:"txns_per_node"`
	Cycles      int                    `json:"cycles"`
	WallS       float64                `json:"wall_s"`
	StreamHash  string                 `json:"stream_hash"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedFrac  float64                `json:"failed_frac"`
	Errors      []string               `json:"errors,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Raw holds the medians over cycles of the untraced pass's timings as
	// the host clock read them, on the live and on the reference engine. They
	// move with the host's speed; the gated metrics are their ratios.
	Raw map[string]rawValue `json:"raw,omitempty"`
	// PerCycle holds the per-cycle values behind each end-to-end metric,
	// in cycle order.
	PerCycle map[string][]float64 `json:"per_cycle,omitempty"`
}

type rawValue struct {
	Live float64 `json:"live"`
	Ref  float64 `json:"ref"`
	Unit string  `json:"unit"`
}

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool // 2 measured cycles, no warm-up: the determinism test
	clients int  // 0: min(nproc, 4)
	out     string
}

func clientCount(w workloadDef, o runOpts) (int, error) {
	if w.SingleClient {
		return 1, nil
	}
	// GOMAXPROCS is nproc unless the caller lowered it; it is what bounds
	// the clients that can run at once.
	procs := runtime.GOMAXPROCS(0)
	n := o.clients
	if n == 0 {
		n = procs
		if n > nodes {
			n = nodes
		}
	}
	if n > procs {
		return 0, fmt.Errorf("clients = %d exceeds GOMAXPROCS = %d: the generator would time its own queueing", n, procs)
	}
	if n < 1 || n > nodes {
		return 0, fmt.Errorf("clients = %d, want 1..%d", n, nodes)
	}
	return n, nil
}

// runPass runs warm-up cycles, then measured cycles for o.seconds, and
// reduces them to the pass's metrics. An untraced cycle runs on both engines,
// the same seed a fraction of a second apart, alternating which goes first; a
// traced one on the live engine only. The returned cycles are the live
// engine's measured ones (the determinism test reads their counts).
func runPass(w workloadDef, o runOpts) (*passResult, []*cycleResult, error) {
	clients, err := clientCount(w, o)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	pr := &passResult{Workload: w.Name, Protocol: w.Proto, Trace: o.trace, Clients: clients, TxnsPerNode: w.TxnsPerNode, Correct: true}
	var units unitCosts
	if o.trace {
		// Twice, keeping the second: with the collector off the first pass
		// pays the page faults of a heap that has never been this large,
		// which no measured cycle pays.
		for i := 0; i < 2; i++ {
			if units, err = measureUnits(w.Proto); err != nil {
				return nil, nil, fmt.Errorf("direct layer calls: %w", err)
			}
			runtime.GC()
		}
	}
	wedge := func(e engine) { writeWedge(filepath.Join(o.out, "wedge-"+w.Name+".txt"), e) }
	warm := warmupCycles
	if o.quick {
		warm = 0
	}
	var measured, refs []*cycleResult
	var measureStart time.Time
cycles:
	for i := 0; ; i++ {
		if i == warm {
			measureStart = time.Now()
		}
		if n := i - warm; n >= 0 {
			if o.quick && n >= 2 {
				break
			}
			if !o.quick && n >= minCycles && time.Since(measureStart).Seconds() >= o.seconds {
				break
			}
		}
		v := plain
		sides := []side{live, ref}
		if o.trace {
			sides = sides[:1]
			if i >= warm {
				v = variant((i - warm) % 3)
			}
		} else if i%2 == 1 {
			sides = []side{ref, live}
		}
		for _, sd := range sides {
			c, err := runCycle(w, sd, clients, o.seed+int64(i), v, wedge)
			if err != nil {
				return nil, nil, fmt.Errorf("%s cycle %d (%s engine): %w", w.Name, i, sideNames[sd], err)
			}
			// The cycle's DB and garbage go now, not in the next cycle's
			// set-up, which belongs to the other engine.
			runtime.GC()
			// A cycle attempts its transactions and one recovery.
			pr.Attempted += nodes*w.TxnsPerNode + 1
			pr.Failed += c.failed
			if c.recoverErr || c.wedged {
				pr.Failed++
			}
			if len(c.incorrect) > 0 {
				pr.Correct = false
				for _, e := range c.incorrect {
					if len(pr.Errors) < 20 {
						pr.Errors = append(pr.Errors, fmt.Sprintf("cycle %d (%s engine): %s", i, sideNames[sd], e))
					}
				}
			}
			if c.wedged || c.recoverErr {
				break cycles
			}
			if i >= warm {
				if sd == live {
					measured = append(measured, c)
				} else {
					refs = append(refs, c)
				}
			}
		}
	}
	pr.Cycles = len(measured)
	pr.FailedFrac = ratio(float64(pr.Failed), float64(pr.Attempted))
	if pr.Failed > 0 {
		pr.Correct = false
	}
	if pr.Correct {
		pr.StreamHash = fmt.Sprintf("%016x", measured[0].hash)
		if o.trace {
			pr.Metrics = reduceLayers(measured, units)
			// Every traced cycle's spans feed the medians; the file keeps
			// the first few cycles, which is what a reader opens.
			var spans [][]span
			for _, c := range measured {
				if c.variant == traced && len(spans) < traceFileCycles {
					spans = append(spans, c.spans)
				}
			}
			if err := writeTrace(filepath.Join(o.out, "trace-"+w.Name+".json"), w.Name, spans); err != nil {
				return nil, nil, err
			}
		} else {
			pr.Metrics, pr.Raw, pr.PerCycle = reduceEndToEnd(measured, refs)
		}
	}
	pr.WallS = time.Since(start).Seconds()
	return pr, measured, nil
}

// writeWedge is the watchdog's dump: every goroutine's stack plus the lock
// and machine counters, so a wedge fails loudly with evidence.
func writeWedge(path string, e engine) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: wedge dump:", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "no commit progress for %d s\n\n", wedgeLimitSecs)
	if le, ok := e.(*liveEngine); ok {
		fmt.Fprintf(f, "lock stats: %+v\n\nmachine stats: %+v\n\n", le.db.Locks.Stats(), le.db.M.Stats())
	} else {
		fmt.Fprint(f, "the reference engine wedged\n\n")
	}
	_ = pprof.Lookup("goroutine").WriteTo(f, 2) // best effort: the run fails either way
	fmt.Fprintln(os.Stderr, "benchmark: wedged; stacks in", path)
}

func floats(cs []*cycleResult, keep func(*cycleResult) bool, f func(*cycleResult) float64) []float64 {
	var out []float64
	for _, c := range cs {
		if keep(c) {
			out = append(out, f(c))
		}
	}
	return out
}

// all keeps every cycle.
func all(*cycleResult) bool { return true }

func is(v variant) func(*cycleResult) bool {
	return func(c *cycleResult) bool { return c.variant == v }
}

// untracedFwd keeps cycles whose forward round ran without spans.
func untracedFwd(c *cycleResult) bool { return c.variant != traced }

func pooledLatUS(cs []*cycleResult, keep func(*cycleResult) bool) []float64 {
	var out []float64
	for _, c := range cs {
		if keep(c) {
			out = append(out, latUS(c)...)
		}
	}
	return out
}

// reduceEndToEnd turns an untraced pass's cycles into the end-to-end
// metrics. cs[i] and refs[i] ran the same operations on the live and the
// reference engine. A timing is the median over cycles of live / reference:
// the host's speed, which drifts by a quarter over minutes, is in both and
// cancels. Counts are the live engine's own, and setup_s is setupRefS scaled
// by the set-up ratio.
func reduceEndToEnd(cs, refs []*cycleResult) (map[string]metricValue, map[string]rawValue, map[string][]float64) {
	type timing struct {
		unit  string
		scale float64 // ns to unit
		f     func(*cycleResult) float64
	}
	latQ := func(q float64) func(*cycleResult) float64 {
		return func(c *cycleResult) float64 { return quantile(latUS(c), q) * 1e3 }
	}
	timings := map[string]timing{
		"setup_s":             {"s", 1e-9, func(c *cycleResult) float64 { return float64(c.setupNS) }},
		"commits_per_s_rel":   {"1/s", 1e9, func(c *cycleResult) float64 { return float64(c.commits) / float64(c.fwdWallNS) }},
		"txn_p50_rel":         {"us", 1e-3, latQ(0.5)},
		"txn_p95_rel":         {"us", 1e-3, latQ(0.95)},
		"cpu_per_commit_rel":  {"us", 1e-3, func(c *cycleResult) float64 { return float64(c.fwdCPUNS) / float64(c.commits) }},
		"recover_time_rel":    {"ms", 1e-6, func(c *cycleResult) float64 { return float64(c.recoverNS) }},
		"mttr_rel":            {"ms", 1e-6, func(c *cycleResult) float64 { return float64(c.mttrNS) }},
		"cpu_per_recover_rel": {"ms", 1e-6, func(c *cycleResult) float64 { return float64(c.recCPUNS) }},
	}
	counts := map[string]func(*cycleResult) float64{
		"allocs_per_commit":    func(c *cycleResult) float64 { return float64(c.fwdMallocs) / float64(c.commits) },
		"log_bytes_per_commit": func(c *cycleResult) float64 { return float64(c.counts.walBytes) / float64(c.commits) },
		"allocs_per_recover":   func(c *cycleResult) float64 { return float64(c.recMallocs) },
	}
	out := make(map[string]metricValue)
	raw := make(map[string]rawValue)
	samples := make(map[string][]float64)
	for _, d := range endToEnd {
		var xs []float64
		if f, ok := counts[d.Name]; ok {
			xs = floats(cs, all, f)
		} else {
			t := timings[d.Name]
			l, r := floats(cs, all, t.f), floats(refs, all, t.f)
			for i := range l {
				xs = append(xs, ratio(l[i], r[i]))
			}
			raw[d.Name] = rawValue{Live: median(l) * t.scale, Ref: median(r) * t.scale, Unit: t.unit}
			for i := range l {
				l[i], r[i] = l[i]*t.scale, r[i]*t.scale
			}
			samples["live:"+d.Name], samples["ref:"+d.Name] = l, r
		}
		v := median(xs)
		if d.Name == "setup_s" {
			v *= setupRefS
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Samples: len(xs)}
		samples[d.Name] = xs
	}
	return out, raw, samples
}

func latUS(c *cycleResult) []float64 {
	out := make([]float64, len(c.lat))
	for i, d := range c.lat {
		out[i] = float64(d) / 1e3
	}
	return out
}

// reduceLayers turns a traced pass's cycles (plain, traced and parallel
// variants in rotation) into the per-layer metrics.
func reduceLayers(cs []*cycleResult, u unitCosts) map[string]metricValue {
	vals := make(map[string]float64)
	samples := make(map[string]int)
	set := func(name string, v float64, n int) { vals[name], samples[name] = v, n }

	// Forward-round totals over the cycles that ran without spans.
	var tot layerCounts
	var commits, attempts, blocked, reads, nfwd int
	var latNS float64
	for _, c := range cs {
		if !untracedFwd(c) {
			continue
		}
		nfwd++
		tot = addCounts(tot, c.counts)
		commits, attempts, blocked, reads = commits+c.commits, attempts+c.attempts, blocked+c.blocked, reads+c.reads
		for _, d := range c.lat {
			latNS += float64(d)
		}
	}
	per := func(name string, v int64) { set(name, ratio(float64(v), float64(commits)), nfwd) }

	// txn: spans, tails, retries, overhead, residue.
	byOp := make(map[opKind][]float64)
	for _, c := range cs {
		for _, s := range c.spans {
			byOp[s.Op] = append(byOp[s.Op], float64(s.Dur))
		}
	}
	for _, k := range []opKind{opBegin, opRead, opWrite, opCommit, opAbort} {
		set("txn."+opNames[k]+"_ns", median(byOp[k]), len(byOp[k]))
	}
	lat := pooledLatUS(cs, untracedFwd)
	set("txn.p99_us", quantile(lat, 0.99), len(lat))
	set("txn.p999_us", quantile(lat, 0.999), len(lat))
	per("txn.blocked_retries_per_commit", int64(blocked))
	set("txn.commit_ratio", ratio(float64(commits), float64(attempts)), nfwd)
	rate := func(c *cycleResult) float64 { return float64(c.commits) / float64(c.fwdWallNS) }
	tr, un := floats(cs, is(traced), rate), floats(cs, untracedFwd, rate)
	set("txn.trace_overhead_frac", 1-ratio(median(tr), median(un)), len(tr))
	// The forward round as the host clock read it. These move with the
	// host's speed; the untraced pass gates their ratios to the reference
	// engine instead.
	set("txn.commits_per_s", median(un)*1e9, len(un))
	set("txn.p50_us", median(lat), len(lat))
	set("txn.p95_us", quantile(lat, 0.95), len(lat))
	cpu := floats(cs, untracedFwd, func(c *cycleResult) float64 { return float64(c.fwdCPUNS) / 1e3 / float64(c.commits) })
	set("txn.cpu_us_per_commit", median(cpu), len(cpu))

	b := u.budget(tot, reads, latNS)
	set("txn.residue_frac", b.residue, nfwd)
	set("lock.busy_frac", b.lock, nfwd)
	set("wal.busy_frac", b.wal, nfwd)
	set("machine.busy_frac", b.machine, nfwd)
	set("buffer.busy_frac", b.buffer, nfwd)
	set("recovery.busy_frac", b.recovery, nfwd)

	set("lock.acquire_release_ns", u.lockPair.ns, microbenchIters)
	per("lock.acquires_per_commit", tot.lock.Acquires)
	per("lock.locklogs_per_commit", tot.lock.LockLogs)
	set("lock.wait_ratio", ratio(float64(tot.lock.Waits), float64(tot.lock.Acquires)), nfwd)
	set("lock.probes_per_acquire", ratio(float64(tot.lock.Probes), float64(tot.lock.Acquires)), nfwd)

	set("wal.append_ns", u.append.ns, microbenchIters)
	set("wal.force_ns_per_record", u.forceRec.ns, microbenchIters)
	set("wal.scan_ns_per_record", u.scanRec.ns, microbenchIters)
	per("wal.appends_per_commit", tot.walAppends)
	per("wal.forces_per_commit", tot.walForces)
	set("wal.bytes_per_force", ratio(float64(tot.walBytes), float64(tot.walForces)), nfwd)

	set("machine.read_local_ns", u.readLocal.ns, microbenchIters)
	set("machine.write_local_ns", u.writeLocal.ns, microbenchIters)
	set("machine.linelock_ns", u.lineLock.ns, microbenchIters)
	set("machine.migrate_ns", u.migrate.ns, microbenchIters)
	per("machine.reads_per_commit", tot.mach.Reads)
	per("machine.writes_per_commit", tot.mach.Writes)
	set("machine.local_hit_ratio", ratio(float64(tot.mach.LocalHits), float64(tot.mach.Reads+tot.mach.Writes)), nfwd)
	per("machine.migrations_per_commit", tot.mach.Migrations)
	set("machine.linelock_contended_ratio", ratio(float64(tot.mach.LineLockContended), float64(tot.mach.LineLockAcquires)), nfwd)
	per("machine.trigger_fires_per_commit", tot.mach.TriggerFires)
	set("machine.sim_us_per_commit", ratio(float64(tot.simNS)/1e3, float64(commits)), nfwd)

	set("buffer.fetch_hit_ns", u.fetchHit.ns, microbenchIters)
	per("buffer.fetches_per_commit", tot.buf.Fetches)
	set("buffer.disk_fetch_ratio", ratio(float64(tot.buf.DiskFetches), float64(tot.buf.Fetches)), nfwd)
	ck := floats(cs, all, func(c *cycleResult) float64 { return float64(c.ckptNS) / 1e6 })
	set("buffer.checkpoint_ms", median(ck), len(ck))
	set("buffer.flushes_per_checkpoint", median(floats(cs, all, func(c *cycleResult) float64 { return float64(c.ckptFlushes) })), len(ck))

	set("recovery.update_ns", u.update.ns, microbenchIters)
	set("recovery.read_ns", u.read.ns, microbenchIters)
	set("recovery.commit_ns", u.commit.ns, microbenchIters/commitProbeWrite)
	per("recovery.updates_per_commit", tot.rec.Updates)
	per("recovery.commit_forces_per_commit", tot.rec.CommitForces)
	per("recovery.lbm_forces_per_commit", tot.rec.LBMForces)
	per("recovery.tag_writes_per_commit", tot.rec.TagWrites)

	// Restart: host time per phase from the traced cycles' observer stamps.
	phaseMS := make(map[string][]float64)
	var cover []float64
	for _, c := range cs {
		if c.variant != traced {
			continue
		}
		var sum int64
		for _, p := range recoveryPhases {
			phaseMS[p] = append(phaseMS[p], float64(c.phaseNS[p])/1e6)
			sum += c.phaseNS[p]
		}
		cover = append(cover, ratio(float64(sum), float64(c.recoverNS)))
	}
	for _, p := range recoveryPhases {
		set("recovery.phase_"+p+"_ms", median(phaseMS[p]), len(phaseMS[p]))
	}
	set("recovery.phase_coverage_frac", median(cover), len(cover))
	// Exact counts of the first measured cycle: they repeat for a seed.
	first := cs[0]
	set("recovery.redo_applied", float64(first.rep.RedoApplied), 1)
	set("recovery.redo_skipped", float64(first.rep.RedoSkipped), 1)
	set("recovery.undo_applied", float64(first.rep.UndoApplied), 1)
	set("recovery.tag_scan_lines", float64(first.rep.TagScanLines), 1)
	set("recovery.retained_records", float64(first.retained), 1)
	ms := func(keep func(*cycleResult) bool, f func(*cycleResult) int64) []float64 {
		return floats(cs, keep, func(c *cycleResult) float64 { return float64(f(c)) / 1e6 })
	}
	recNS := func(c *cycleResult) int64 { return c.recoverNS }
	seq, trc, par := ms(is(plain), recNS), ms(is(traced), recNS), ms(is(parallel), recNS)
	set("recovery.crash_ms", median(ms(all, func(c *cycleResult) int64 { return c.crashNS })), len(cs))
	set("recovery.restart_node_ms", median(ms(all, func(c *cycleResult) int64 { return c.restartNS })), len(cs))
	set("recovery.trace_overhead_frac", 1-ratio(median(seq), median(trc)), len(trc))
	set("recovery.parallel_ratio", ratio(median(seq), median(par)), len(par))
	set("recovery.recover_ms_p50", median(seq), len(seq))
	set("recovery.recover_ms_p75", quantile(seq, 0.75), len(seq))
	mttr := ms(is(plain), func(c *cycleResult) int64 { return c.mttrNS })
	set("recovery.mttr_ms_p50", median(mttr), len(mttr))
	rps := floats(cs, is(plain), func(c *cycleResult) float64 { return float64(c.retained) / (float64(c.recoverNS) / 1e9) })
	set("recovery.records_per_s", median(rps), len(rps))
	set("recovery.cpu_ms_per_recover", median(ms(is(plain), func(c *cycleResult) int64 { return c.recCPUNS })), len(seq))

	out := make(map[string]metricValue)
	for _, d := range perLayer {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit, Better: d.Better, Samples: samples[d.Name]}
	}
	return out
}

// recoveryPhases are the observer's phase names, in execution order; phase
// p is reported as recovery.phase_<p>_ms.
var recoveryPhases = []string{
	"directory-repair", "lock-rebuild", "redo-scan", "probe", "redo-apply", "undo", "undo-tag-scan", "settle",
}

func addCounts(a, b layerCounts) layerCounts {
	// sub with a negated operand would do; spelling the sum out keeps the
	// Stats types' own Sub the only arithmetic they need.
	var zero layerCounts
	return a.sub(zero.sub(b))
}
