package main

// Fixed method. Every workload runs the same cycle on a fresh 4-node DB, so
// every end-to-end and per-layer metric is defined on every workload; only
// the protocol and the access shape differ. The numbers below are recorded
// in the result JSON and described in README.md.
const (
	nodes          = 4
	pages          = 64
	linesPerPage   = 8
	recsPerLine    = 4
	lockTableLines = 2048
	machineLines   = 4096

	opsPerTxn   = 8
	maxAttempts = 10 // deadlock victims retry; the 10th abort is a failure

	inflightPerNode = 4 // open transactions left on every node at the crash
	inflightWrites  = 4
	crashNode       = 3

	warmupCycles     = 1 // on each engine
	minCycles        = 6
	minRetained      = 100_000 // WAL records a recover-* backlog must retain
	wedgeLimitSecs   = 10
	defaultSeconds   = 22
	microbenchIters  = 20_000
	forceBatch       = 16 // records per Force in wal.force_ns_per_record
	commitProbeWrite = 6  // writes per txn in recovery.commit_ns
	traceFileCycles  = 3  // traced cycles written to trace-<workload>.json

	// setupRefS is the reference engine's set-up time on the host the
	// benchmark was built on. setup_s is this times the live engine's set-up
	// over the reference engine's, cycle by cycle.
	setupRefS = 0.020
)

// workloadDef is one named workload. Names are final: later PRs report
// deltas on them.
type workloadDef struct {
	Name  string
	Why   string
	Proto string // a recovery.Protocol's name
	// SingleClient drives all four nodes from one goroutine, so the
	// operation interleaving — and with it every recovery count — repeats
	// exactly for a seed.
	SingleClient bool
	// TxnsPerNode sizes the forward round: 4 x TxnsPerNode transactions,
	// whatever the client count.
	TxnsPerNode int
	ReadFrac    float64
	SharedFrac  float64 // share of accesses that go to the shared pool
	HotProb     float64 // share of shared accesses that hit the hot set
	HotPages    int     // hot set size, in pages of the shared pool
}

var workloads = []workloadDef{
	{
		Name:        "fwd-private",
		Why:         "every access in the issuing node's private partition: uncontended lock manager, Update, WAL append/commit force, db.mu, allocator",
		Proto:       "volatile-lbm/selective-redo",
		TxnsPerNode: 1100,
		ReadFrac:    0.25,
	},
	{
		Name:  "fwd-contended",
		Why:   "80% shared accesses, 90% of them on a 2-page hot set: line migration, lock waits, deadlock detection; same lock and machine layers used the opposite way",
		Proto: "volatile-lbm/selective-redo",
		// A contended transaction takes three times an uncontended one:
		// fewer per round, so a run still holds twenty-odd cycles.
		TxnsPerNode: 500,
		ReadFrac:    0.5,
		SharedFrac:  0.8,
		HotProb:     0.9,
		HotPages:    2,
	},
	{
		Name:        "fwd-stable",
		Why:         "stable-lbm/triggered with 30% uniform sharing: log forces fire on the coherency path instead of only at commit",
		Proto:       "stable-lbm/triggered",
		TxnsPerNode: 1100,
		ReadFrac:    0.25,
		SharedFrac:  0.3,
	},
	{
		Name:         "recover-selective",
		Why:          "deterministic single-client backlog, then Selective Redo: probe, redo-apply and undo-tag-scan dominate recovery",
		Proto:        "volatile-lbm/selective-redo",
		SingleClient: true,
		TxnsPerNode:  1100,
		ReadFrac:     0.2,
		SharedFrac:   0.3,
	},
	{
		Name:         "recover-redoall",
		Why:          "identical seed-for-seed backlog under Redo All: discard survivor caches, scan and redo everything; wal.Scan and buffer.Fetch dominate",
		Proto:        "volatile-lbm/redo-all",
		SingleClient: true,
		TxnsPerNode:  1100,
		ReadFrac:     0.2,
		SharedFrac:   0.3,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. BENCHMARK.json repeats this table (bench_test.go checks they agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The gated timings are ratios, live engine over reference engine (see
// reduceEndToEnd): 1 when the live engine is the reference, below 1 for a
// time and above 1 for a rate when it got faster. The counts are the live
// engine's own.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commits_per_s_rel", "ratio", "higher", 0.20},
	{"txn_p50_rel", "ratio", "lower", 0.20},
	{"txn_p95_rel", "ratio", "lower", 0.20},
	{"cpu_per_commit_rel", "ratio", "lower", 0.20},
	{"allocs_per_commit", "count", "lower", 0.20},
	{"log_bytes_per_commit", "B", "lower", 0.01},
	{"recover_time_rel", "ratio", "lower", 0.20},
	{"mttr_rel", "ratio", "lower", 0.20},
	{"cpu_per_recover_rel", "ratio", "lower", 0.20},
	{"allocs_per_recover", "count", "lower", 0.05},
}

var perLayer = []metricDef{
	// txn: spans around the benchmark's own calls.
	{"txn.begin_ns", "ns", "lower", 0},
	{"txn.read_ns", "ns", "lower", 0},
	{"txn.write_ns", "ns", "lower", 0},
	{"txn.commit_ns", "ns", "lower", 0},
	{"txn.abort_ns", "ns", "lower", 0},
	{"txn.p99_us", "us", "lower", 0},
	{"txn.p999_us", "us", "lower", 0},
	{"txn.blocked_retries_per_commit", "count", "lower", 0},
	{"txn.commit_ratio", "ratio", "higher", 0},
	{"txn.trace_overhead_frac", "ratio", "lower", 0},
	{"txn.residue_frac", "ratio", "lower", 0},
	{"txn.commits_per_s", "1/s", "higher", 0},
	{"txn.p50_us", "us", "lower", 0},
	{"txn.p95_us", "us", "lower", 0},
	{"txn.cpu_us_per_commit", "us", "lower", 0},
	// lock
	{"lock.acquire_release_ns", "ns", "lower", 0},
	{"lock.acquires_per_commit", "count", "lower", 0},
	{"lock.locklogs_per_commit", "count", "lower", 0},
	{"lock.wait_ratio", "ratio", "lower", 0},
	{"lock.probes_per_acquire", "count", "lower", 0},
	{"lock.busy_frac", "ratio", "lower", 0},
	// wal
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.force_ns_per_record", "ns", "lower", 0},
	{"wal.scan_ns_per_record", "ns", "lower", 0},
	{"wal.appends_per_commit", "count", "lower", 0},
	{"wal.forces_per_commit", "count", "lower", 0},
	{"wal.bytes_per_force", "B", "lower", 0},
	{"wal.busy_frac", "ratio", "lower", 0},
	// machine
	{"machine.read_local_ns", "ns", "lower", 0},
	{"machine.write_local_ns", "ns", "lower", 0},
	{"machine.linelock_ns", "ns", "lower", 0},
	{"machine.migrate_ns", "ns", "lower", 0},
	{"machine.reads_per_commit", "count", "lower", 0},
	{"machine.writes_per_commit", "count", "lower", 0},
	{"machine.local_hit_ratio", "ratio", "higher", 0},
	{"machine.migrations_per_commit", "count", "lower", 0},
	{"machine.linelock_contended_ratio", "ratio", "lower", 0},
	{"machine.trigger_fires_per_commit", "count", "lower", 0},
	{"machine.sim_us_per_commit", "us", "lower", 0},
	{"machine.busy_frac", "ratio", "lower", 0},
	// buffer
	{"buffer.fetch_hit_ns", "ns", "lower", 0},
	{"buffer.fetches_per_commit", "count", "lower", 0},
	{"buffer.disk_fetch_ratio", "ratio", "lower", 0},
	{"buffer.checkpoint_ms", "ms", "lower", 0},
	{"buffer.flushes_per_checkpoint", "count", "lower", 0},
	{"buffer.busy_frac", "ratio", "lower", 0},
	// recovery, forward path
	{"recovery.update_ns", "ns", "lower", 0},
	{"recovery.read_ns", "ns", "lower", 0},
	{"recovery.commit_ns", "ns", "lower", 0},
	{"recovery.updates_per_commit", "count", "lower", 0},
	{"recovery.commit_forces_per_commit", "count", "lower", 0},
	{"recovery.lbm_forces_per_commit", "count", "lower", 0},
	{"recovery.tag_writes_per_commit", "count", "lower", 0},
	{"recovery.busy_frac", "ratio", "lower", 0},
	// recovery, restart
	{"recovery.phase_directory-repair_ms", "ms", "lower", 0},
	{"recovery.phase_lock-rebuild_ms", "ms", "lower", 0},
	{"recovery.phase_redo-scan_ms", "ms", "lower", 0},
	{"recovery.phase_probe_ms", "ms", "lower", 0},
	{"recovery.phase_redo-apply_ms", "ms", "lower", 0},
	{"recovery.phase_undo_ms", "ms", "lower", 0},
	{"recovery.phase_undo-tag-scan_ms", "ms", "lower", 0},
	{"recovery.phase_settle_ms", "ms", "lower", 0},
	{"recovery.phase_coverage_frac", "ratio", "higher", 0},
	{"recovery.redo_applied", "count", "lower", 0},
	{"recovery.redo_skipped", "count", "lower", 0},
	{"recovery.undo_applied", "count", "lower", 0},
	{"recovery.tag_scan_lines", "count", "lower", 0},
	{"recovery.retained_records", "count", "higher", 0},
	{"recovery.crash_ms", "ms", "lower", 0},
	{"recovery.restart_node_ms", "ms", "lower", 0},
	{"recovery.trace_overhead_frac", "ratio", "lower", 0},
	{"recovery.parallel_ratio", "ratio", "higher", 0},
	// The restart as the host clock read it: it moves with the host's speed
	// (README.md), so the untraced pass gates its ratio to the reference
	// engine instead.
	{"recovery.recover_ms_p50", "ms", "lower", 0},
	{"recovery.recover_ms_p75", "ms", "lower", 0},
	{"recovery.mttr_ms_p50", "ms", "lower", 0},
	{"recovery.records_per_s", "1/s", "higher", 0},
	{"recovery.cpu_ms_per_recover", "ms", "lower", 0},
}
