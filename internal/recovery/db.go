package recovery

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"smdb/internal/buffer"
	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/prof"
	"smdb/internal/obs/waterfall"
	"smdb/internal/sched"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// Config parameterizes a shared-memory database instance.
type Config struct {
	// Machine configures the simulated multiprocessor. Leave zero for
	// defaults (4 nodes, 128-byte lines).
	Machine machine.Config
	// Protocol selects the recovery protocol.
	Protocol Protocol
	// LinesPerPage and RecsPerLine fix the heap layout (defaults 8 and 4;
	// RecsPerLine is the paper's records-per-cache-line sharing knob).
	LinesPerPage, RecsPerLine int
	// Pages is the heap size in pages (default 64).
	Pages int
	// LockTableLines sizes the shared-memory LCB table (default 512).
	LockTableLines int
	// ChainedLCBs lets lock control blocks span multiple cache lines (the
	// paper's harder recovery variant: a crash can destroy arbitrary
	// segments of a lock queue, and recovery rebuilds whole LCBs).
	ChainedLCBs bool
	// NVRAMLog prices log forces as NVRAM instead of rotational disk.
	NVRAMLog bool
	// DirtyReads permits reads without shared locks (browse/chaos degrees
	// of [7]); used to demonstrate the H_wr hazard of section 3.2.
	DirtyReads bool
	// RecoveryWorkers bounds the goroutine fan-out of restart recovery's
	// phases (per-survivor log scans, page-partitioned redo, the undo tag
	// scan, lock replay, cache flush). 0 or 1 runs every phase inline on
	// the calling goroutine: the sequential pipeline. Post-recovery
	// database state, abort sets, and the Redo/Undo counters are identical
	// at every setting; only wall clock (and the incidental simulated
	// interleaving) changes.
	RecoveryWorkers int
	// GroupCommitForces enables epoch/group log forces: commit records
	// arriving within one epoch window coalesce into a single physical
	// Force per log (wal.Log.ForceGroup), with a group-commit leader and
	// follower wakeup. Durability is unchanged — a commit still only
	// acknowledges once its own record is stable.
	GroupCommitForces bool
	// GroupCommitWindow is the epoch leader's host-time collection wait
	// (default 200µs when GroupCommitForces is set). Ignored whenever a
	// chaos record/replay session is attached: the window then collapses
	// to one deterministic scheduler point per epoch.
	GroupCommitWindow time.Duration
}

func (c *Config) setDefaults() {
	if c.LinesPerPage == 0 {
		c.LinesPerPage = 8
	}
	if c.RecsPerLine == 0 {
		c.RecsPerLine = 4
	}
	if c.Pages == 0 {
		c.Pages = 64
	}
	if c.LockTableLines == 0 {
		c.LockTableLines = 512
	}
	if c.GroupCommitForces && c.GroupCommitWindow == 0 {
		c.GroupCommitWindow = 200 * time.Microsecond
	}
}

// TxnStatus is a transaction's lifecycle state.
type TxnStatus int

const (
	// TxnActive transactions have begun and neither committed nor aborted.
	TxnActive TxnStatus = iota
	// TxnCommitted transactions have a stable commit record.
	TxnCommitted
	// TxnAborted transactions have been rolled back (by request, deadlock,
	// or crash recovery).
	TxnAborted
)

func (s TxnStatus) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxnStatus(%d)", int(s))
	}
}

// heldLock records one lock held by a transaction (node-local bookkeeping;
// it lives and dies with the transaction's node).
type heldLock struct {
	name lock.Name
	mode lock.Mode
}

// writeRec records one update a transaction made (node-local bookkeeping
// plus IFA-oracle input: the after image, version, and log position).
type writeRec struct {
	rid     heap.RID
	img     []byte
	version uint64
	lsn     wal.LSN
}

// txnState is the node-local control state of one transaction. A node crash
// destroys the txnState of its transactions (the "control state (registers,
// stack, etc.)" of section 3.1); recovery must never read a crashed
// transaction's txnState — it rediscovers what it needs from stable logs and
// undo tags. The engine keeps crashed entries only for the IFA oracle
// (verification), clearly separated by the crashed flag.
//
// id and beginSim never change. status and crashed are written under the
// node's mutex and read anywhere; every other field is guarded by the node's
// mutex (see nodeCtl).
type txnState struct {
	id      wal.TxnID
	status  atomic.Int32 // a TxnStatus
	crashed atomic.Bool  // its node crashed while it was active
	// beginSim is the node's simulated clock at Begin, for commit-latency
	// observation.
	beginSim int64
	locks    []heldLock
	// writes lists the updates the transaction applied (node-local; used
	// for commit-time tag clearing and by the IFA oracle).
	writes []writeRec
	// nta > 0 while a nested top-level action is open.
	nta uint64
	// global > 0 marks a branch of a parallel (multi-node) transaction.
	global uint64
	// deferred holds update records not yet appended to the log — only
	// used by the AblatedNoLBM negative control, which logs at commit.
	deferred []wal.Record
	// lockBuf and writeBuf back locks and writes until the transaction
	// outgrows them, so an ordinary transaction's bookkeeping is the one
	// txnState allocation instead of two slices doubling their way up.
	lockBuf  [8]heldLock
	writeBuf [8]writeRec
}

// stat returns the transaction's lifecycle state.
func (st *txnState) stat() TxnStatus { return TxnStatus(st.status.Load()) }

// live reports whether the transaction is active on a node that has not
// crashed under it.
func (st *txnState) live() bool { return st.stat() == TxnActive && !st.crashed.Load() }

// Stats aggregates protocol-level counters (beyond machine/buffer/lock
// stats).
type Stats struct {
	// Updates, Inserts, Deletes are record operations applied.
	Updates, Inserts, Deletes int64
	// Commits, Aborts are completed transactions.
	Commits, Aborts int64
	// CommitForces counts commit-time physical log forces; LBMForces
	// counts forces performed to satisfy Stable LBM (eager or triggered);
	// NTAForces counts early-commit forces of structural changes.
	CommitForces, LBMForces, NTAForces int64
	// GroupCommitJoins counts commits whose force was satisfied by another
	// commit's epoch/group force (waited for a leader, or found their
	// record already stable on arrival). The physical forces they rode are
	// in CommitForces, charged to their leaders.
	GroupCommitJoins int64
	// TagWrites counts undo-tag stores (Table 1's Undo Tagging overhead);
	// TagClears counts commit/abort-time tag clears.
	TagWrites, TagClears int64
	// UndoTagBytes is the space overhead of tagging.
	UndoTagBytes int64
	// RedoApplied / RedoSkipped count restart redo decisions;
	// UndoApplied counts restart undo installations.
	RedoApplied, RedoSkipped, UndoApplied int64
	// TxnsAbortedByRecovery counts active transactions aborted by restart
	// recovery (for crashed nodes under IFA; for everyone under the
	// baseline).
	TxnsAbortedByRecovery int64
	// LCBsRebuilt and LockEntriesReleased count lock-space recovery work.
	LCBsRebuilt, LockEntriesReleased int64
}

// add returns s + o, field by field.
func (s Stats) add(o Stats) Stats { return s.Sub(Stats{}.Sub(o)) }

// Sub returns the per-interval delta s - prev (see machine.Stats.Sub).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Updates:               s.Updates - prev.Updates,
		Inserts:               s.Inserts - prev.Inserts,
		Deletes:               s.Deletes - prev.Deletes,
		Commits:               s.Commits - prev.Commits,
		Aborts:                s.Aborts - prev.Aborts,
		CommitForces:          s.CommitForces - prev.CommitForces,
		GroupCommitJoins:      s.GroupCommitJoins - prev.GroupCommitJoins,
		LBMForces:             s.LBMForces - prev.LBMForces,
		NTAForces:             s.NTAForces - prev.NTAForces,
		TagWrites:             s.TagWrites - prev.TagWrites,
		TagClears:             s.TagClears - prev.TagClears,
		UndoTagBytes:          s.UndoTagBytes - prev.UndoTagBytes,
		RedoApplied:           s.RedoApplied - prev.RedoApplied,
		RedoSkipped:           s.RedoSkipped - prev.RedoSkipped,
		UndoApplied:           s.UndoApplied - prev.UndoApplied,
		TxnsAbortedByRecovery: s.TxnsAbortedByRecovery - prev.TxnsAbortedByRecovery,
		LCBsRebuilt:           s.LCBsRebuilt - prev.LCBsRebuilt,
		LockEntriesReleased:   s.LockEntriesReleased - prev.LockEntriesReleased,
	}
}

// DB is a complete shared-memory database instance: the simulated machine
// plus every substrate, wired for one recovery protocol.
type DB struct {
	Cfg   Config
	M     *machine.Machine
	Store *heap.Store
	Disk  *storage.Disk
	BM    *buffer.Manager
	Logs  []*wal.Log
	Locks *lock.SMManager

	versions atomic.Uint64
	// frozen is set between Crash and the end of Recover: the low-level
	// machinery has interrupted all CPUs (section 2), and transaction
	// processing stalls until restart recovery completes. The transaction
	// layer surfaces the stall as ErrBlocked.
	frozen atomic.Bool
	// recovering is set for the duration of Recover: restart recovery is
	// the one actor allowed to install page images while the machine is
	// frozen. Together with frozen it drives the machine install gate that
	// keeps a worker which passed its freeze check *before* the crash from
	// reinstalling a stale disk image over destroyed lines *after* it (the
	// committed-value-lost race).
	recovering atomic.Bool

	// nodes is the per-node control state (transaction tables, counters,
	// oracle shards): everything a single-node transaction touches.
	nodes []nodeCtl

	// mu guards what belongs to no node and is off the forward path:
	// restart recovery's own counters, and the observer's sink rewiring.
	mu       sync.Mutex
	recStats Stats

	// The attach points are atomic pointers: the hot paths consult them
	// with no lock held, lbmTrigger with a machine stripe held.
	// obs is the attached observability layer (nil when disabled; all its
	// methods are nil-safe).
	obs atomic.Pointer[obs.Observer]
	// deps is the attached dependency-graph tracker (nil when disabled;
	// nil-safe); see AttachDeps.
	deps atomic.Pointer[deps.Tracker]
	// audit is the attached online IFA auditor (nil when disabled;
	// nil-safe); see AttachAudit.
	audit atomic.Pointer[audit.Auditor]
	// flight is the attached crash flight recorder (nil when disabled;
	// nil-safe); see SetFlightRecorder.
	flight atomic.Pointer[obs.FlightRecorder]
	// prof is the attached contention & cost-attribution profiler pair
	// (nil when disabled; nil-safe); see AttachProf.
	prof atomic.Pointer[prof.Pair]
	// fault is the attached chaos injector (nil when chaos is off); see
	// AttachFaults.
	fault atomic.Pointer[fault.Injector]
	// flightPending is set by noteCrash (no file I/O may run there — the
	// machine lock is held) and consumed at Recover entry, which writes the
	// pending crash dump.
	flightPending atomic.Bool
	// crashSim records the simulated time of the first unrecovered crash,
	// so restart recovery can report the freeze span (crash -> recovery
	// start). Reset by Recover.
	crashSim atomic.Int64
	// schedp is the attached chaos schedule record/replay session (nil when
	// disabled); see AttachSched.
	schedp atomic.Pointer[sched.Session]
	// wfp is the attached per-transaction waterfall recorder (nil when
	// disabled); see AttachWaterfall.
	wfp atomic.Pointer[waterfall.Recorder]
	// dbtp is the attached recovery-debt tracker (nil when disabled); see
	// AttachDebt.
	dbtp atomic.Pointer[debt.Tracker]
	// arenas are the per-worker-slot reusable recovery scratch buffers
	// (see recArena): slot w belongs to fan-out worker slot w, slot 0 to
	// the inline (at most one worker) run. Sized at New from
	// RecoveryWorkers (Recover adds slots if Cfg.RecoveryWorkers was raised
	// since), reused explicitly
	// across phases and Recover calls — no sync.Pool, so buffer
	// placement never depends on GC timing and replay stays deterministic.
	arenas []recArena
}

type committedImage struct {
	img     []byte
	version uint64
}

// New builds a database instance. It panics on invalid configuration
// (programmer error), and returns an error for resource failures.
func New(cfg Config) (*DB, error) {
	cfg.setDefaults()
	m := machine.New(cfg.Machine)
	layout, err := heap.NewLayout(m.LineSize(), cfg.LinesPerPage, cfg.RecsPerLine)
	if err != nil {
		return nil, err
	}
	store := heap.NewStore(m, layout, cfg.Pages)
	disk := storage.NewDisk(layout.PageBytes())
	logs := make([]*wal.Log, m.Nodes())
	for i := range logs {
		logs[i], err = wal.NewLog(machine.NodeID(i), storage.NewLogDevice())
		if err != nil {
			return nil, err
		}
	}
	lm := lock.LogWriteLocks
	if cfg.Protocol.LogsReadLocks() {
		lm = lock.LogAllLocks
	}
	locks, err := lock.NewSMManager(m, cfg.LockTableLines, logs, lm)
	if err != nil {
		return nil, err
	}
	locks.Chained = cfg.ChainedLCBs
	db := &DB{
		Cfg:   cfg,
		M:     m,
		Store: store,
		Disk:  disk,
		BM:    buffer.NewManager(store, disk, logs),
		Logs:  logs,
		Locks: locks,
		nodes: make([]nodeCtl, m.Nodes()),
	}
	for i := range db.nodes {
		db.nodes[i].committed = make(map[heap.RID]committedImage)
	}
	db.BM.NVRAMLog = cfg.NVRAMLog
	slots := cfg.RecoveryWorkers
	if slots < 1 {
		slots = 1
	}
	db.arenas = make([]recArena, slots)
	if cfg.GroupCommitForces {
		for _, l := range logs {
			l.EnableGroupForce(cfg.GroupCommitWindow, nil)
		}
	}
	if cfg.Protocol == StableTriggered {
		m.SetPreTransition(db.lbmTrigger)
	}
	// Every crash — requested or injected mid-transition — destroys the
	// DB-layer state of the dead nodes atomically with the machine crash.
	m.SetCrashNotify(db.noteCrash)
	// Freeze-window install gate: between a crash and restart recovery no
	// page image may (re)enter shared memory except at recovery's own hand.
	// Without it, a racing transaction that passed its freeze check just
	// before the crash can fault a partially-destroyed page back in from
	// the stale disk image, resurrecting pre-crash values over committed
	// ones. The gate runs with the line's stripe held, and frozen only
	// transitions under all stripes, so the decision cannot race the crash.
	m.SetInstallGate(func(nd machine.NodeID, l machine.LineID) error {
		if db.frozen.Load() && !db.recovering.Load() && store.Contains(l) {
			return machine.ErrLineLost
		}
		return nil
	})
	return db, nil
}

// AttachSched wires a chaos schedule record/replay session through the
// layers that expose scheduling decisions: the buffer manager's Fetch entry
// (a scheduling point — the stale-reinstall hazard window) and, when
// recording, the machine's line-lock/install annotation hook. The
// transaction layer reads the session via SchedPoint. Passing nil detaches
// everywhere.
func (db *DB) AttachSched(s *sched.Session) {
	if s == nil {
		db.schedp.Store(nil)
		db.BM.SetFetchHook(nil)
		db.M.SetSchedNote(nil)
		if db.Cfg.GroupCommitForces {
			// Back to host-time epoch windows.
			for _, l := range db.Logs {
				l.SetGroupYield(nil)
			}
		}
		return
	}
	db.schedp.Store(s)
	db.BM.SetFetchHook(func(nd machine.NodeID, p storage.PageID) {
		s.Point(int32(nd), sched.SiteFetch, int64(p))
	})
	if db.Cfg.GroupCommitForces {
		// A host-time epoch window would make the set of stable commit
		// records at a crash instant depend on scheduling; under a session
		// every group-force wait becomes one recorded point instead, so the
		// coalescing decisions replay exactly.
		for _, l := range db.Logs {
			nd := l.Node()
			l.SetGroupYield(func() {
				s.Point(int32(nd), sched.SiteGroupForce, 0)
			})
		}
	}
	if s.Recording() {
		db.M.SetSchedNote(func(nd machine.NodeID, site string, l machine.LineID) {
			s.Note(int32(nd), site, int64(l))
		})
	} else {
		db.M.SetSchedNote(nil)
	}
}

// Sched returns the attached schedule session (possibly nil).
func (db *DB) Sched() *sched.Session { return db.schedp.Load() }

// SchedPoint forwards a scheduling decision to the attached session. With
// none attached (or outside an episode's armed window) it returns arg
// unchanged at the cost of one atomic load.
func (db *DB) SchedPoint(actor int32, site string, arg int64) int64 {
	return db.schedp.Load().Point(actor, site, arg)
}

// AttachObserver wires the observability layer through every engine
// substrate: the machine (coherency, line locks, crashes), each node's WAL,
// the lock manager, the buffer manager, and the protocol layer itself
// (transaction lifecycle, recovery phases). Call before running work;
// passing nil detaches everywhere.
func (db *DB) AttachObserver(o *obs.Observer) {
	db.M.SetObserver(o)
	for _, l := range db.Logs {
		l := l
		node := l.Node()
		var fn func() int64
		if o != nil {
			fn = func() int64 { return db.M.Clock(node) }
		}
		l.SetObserver(o, fn)
	}
	db.Locks.SetObserver(o)
	db.BM.SetObserver(o)
	db.obs.Store(o)
}

// Observer returns the attached observability layer (nil when disabled).
func (db *DB) Observer() *obs.Observer { return db.obs.Load() }

// AttachDeps wires a dependency-graph tracker: it becomes the observer's
// event sink (so coherency, WAL, and txn-lifecycle events flow into it) and
// receives the recovery layer's direct write/crash/recovered notifications.
// Call after AttachObserver — the tracker needs the event stream to maintain
// line residency. Passing nil detaches.
func (db *DB) AttachDeps(t *deps.Tracker) {
	db.mu.Lock()
	db.deps.Store(t)
	db.rewireSinkLocked()
	db.mu.Unlock()
}

// AttachAudit wires an online IFA auditor: it joins the observer's event
// sink (alongside the dependency tracker, if one is attached) and receives
// the recovery layer's direct write/crash/recovered notifications, so it
// can check the logging-before-migration invariant on every coherency
// transition while the workload runs. Call after AttachObserver — the
// auditor needs the event stream. Passing nil detaches.
func (db *DB) AttachAudit(a *audit.Auditor) {
	db.mu.Lock()
	db.audit.Store(a)
	db.rewireSinkLocked()
	db.mu.Unlock()
}

// rewireSinkLocked points the observer's single sink at whichever of the
// dependency tracker and the auditor are attached (a MultiSink when both
// are). Caller holds db.mu.
func (db *DB) rewireSinkLocked() {
	o := db.obs.Load()
	if o == nil {
		return
	}
	dt, au := db.deps.Load(), db.audit.Load()
	switch {
	case dt != nil && au != nil:
		o.SetSink(obs.MultiSink{dt, au})
	case dt != nil:
		o.SetSink(dt)
	case au != nil:
		o.SetSink(au)
	default:
		o.SetSink(nil)
	}
}

// Deps returns the attached dependency tracker (nil when disabled).
func (db *DB) Deps() *deps.Tracker { return db.deps.Load() }

// Audit returns the attached online auditor (nil when disabled).
func (db *DB) Audit() *audit.Auditor { return db.audit.Load() }

// AttachProf wires the contention & cost-attribution profiler: the stripe
// half attaches to the machine's lock helpers (every stripe acquisition,
// contended or not, and every condvar sleep is counted from here on) and the
// worker half receives per-phase cost attribution from the parallel restart
// pipeline. Passing nil detaches both. Unlike the observer, the profiler is
// safe to attach and detach mid-run: open critical sections straddling the
// switch account only the half they saw.
func (db *DB) AttachProf(p *prof.Pair) {
	if p != nil {
		db.M.SetProfiler(p.Stripes)
	} else {
		db.M.SetProfiler(nil)
	}
	db.prof.Store(p)
}

// AttachWaterfall wires the per-transaction latency waterfall recorder
// through every substrate that attributes waits: the machine (line-lock
// queueing with holder resolution), each node's WAL (append markers), the
// buffer manager (disk-fetch waits), and the protocol layer itself (compute
// residue brackets, log-force and undo time, transaction lifecycle). Passing
// nil detaches everywhere.
func (db *DB) AttachWaterfall(w *waterfall.Recorder) {
	db.M.SetWaterfall(w)
	for _, l := range db.Logs {
		node := l.Node()
		var fn func() int64
		if w != nil {
			fn = func() int64 { return db.M.Clock(node) }
		}
		l.SetWaterfall(w, fn)
	}
	db.BM.SetWaterfall(w)
	if w == nil {
		db.wfp.Store(nil)
		return
	}
	db.wfp.Store(w)
}

// Waterfall returns the attached waterfall recorder (nil when disabled; all
// its methods are nil-safe).
func (db *DB) Waterfall() *waterfall.Recorder { return db.wfp.Load() }

// AttachDebt wires the live recovery-debt tracker through the substrates
// that accumulate (and retire) replay debt: each node's WAL (append, force,
// crash truncation, discard) and the buffer manager (dirty-page
// transitions). Recover feeds it MTTR samples and estimator calibration.
// Passing nil detaches everywhere.
func (db *DB) AttachDebt(d *debt.Tracker) {
	for _, l := range db.Logs {
		node := l.Node()
		var fn func() int64
		if d != nil {
			fn = func() int64 { return db.M.Clock(node) }
		}
		l.SetDebt(d, fn)
	}
	db.BM.SetDebt(d)
	if d == nil {
		db.dbtp.Store(nil)
		return
	}
	db.dbtp.Store(d)
}

// Debt returns the attached recovery-debt tracker (nil when disabled; all
// its methods are nil-safe).
func (db *DB) Debt() *debt.Tracker { return db.dbtp.Load() }

// Prof returns the attached profiler pair (nil when disabled).
func (db *DB) Prof() *prof.Pair { return db.prof.Load() }

// profWorkers returns the worker-attribution half of the attached profiler,
// nil when profiling is off (the restart executor tests this once per
// phase).
func (db *DB) profWorkers() *prof.WorkerProf {
	if p := db.prof.Load(); p != nil {
		return p.Workers
	}
	return nil
}

// SetFlightRecorder wires a crash flight recorder: on every node crash a
// post-mortem dump (last-N events per node, dependency graph, stats deltas
// since the previous dump) is written at the next Recover entry, and
// harnesses call DumpFlight on IFA-check failures. Call after AttachObserver
// and AttachDeps so the recorder sees both. Passing nil detaches.
func (db *DB) SetFlightRecorder(r *obs.FlightRecorder) {
	db.flight.Store(r)
	o, t, a := db.Observer(), db.Deps(), db.Audit()
	if r == nil {
		return
	}
	var g obs.GraphWriter
	if t != nil {
		g = t
	}
	var as obs.AuditSource
	if a != nil {
		as = a
	}
	var ps obs.ProfSource
	if p := db.Prof(); p != nil {
		ps = p
	}
	var ws obs.WaterfallSource
	if wf := db.Waterfall(); wf != nil {
		ws = wf
	}
	var ds obs.DebtSource
	if d := db.Debt(); d != nil {
		ds = d
	}
	// Stats writer: machine + protocol counters as deltas since the last
	// dump, so each dump reads as "what happened since the previous one".
	var prevM machine.Stats
	var prevP Stats
	var prevMu sync.Mutex
	r.SetSources(o, g, as, ps, ws, ds, func(w io.Writer) error {
		curM := db.M.Stats()
		curP := db.Stats()
		prevMu.Lock()
		dM := curM.Sub(prevM)
		dP := curP.Sub(prevP)
		prevM, prevP = curM, curP
		prevMu.Unlock()
		fmt.Fprintf(w, "machine stats delta: %+v\n\nprotocol stats delta: %+v\n", dM, dP)
		return nil
	})
}

// FlightRecorder returns the attached flight recorder (nil when disabled).
func (db *DB) FlightRecorder() *obs.FlightRecorder { return db.flight.Load() }

// DumpFlight writes a flight-recorder dump with the given reason, returning
// its directory. A detached recorder returns ("", nil).
func (db *DB) DumpFlight(reason string) (string, error) {
	return db.FlightRecorder().Dump(reason)
}

// Stats returns a snapshot of the protocol counters: the per-node blocks,
// visited in ascending node order, plus restart recovery's own.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	sum := db.recStats
	db.mu.Unlock()
	for i := range db.nodes {
		nc := &db.nodes[i]
		nc.mu.Lock()
		sum = sum.add(nc.stats)
		nc.mu.Unlock()
		sum.CommitForces += nc.commitForces.Load()
		sum.LBMForces += nc.lbmForces.Load()
		sum.NTAForces += nc.ntaForces.Load()
		sum.GroupCommitJoins += nc.groupJoins.Load()
	}
	return sum
}

// NextVersion returns a fresh global update version. (On real hardware this
// is a fetch-and-add on a dedicated shared line; its cost is folded into the
// update's local work.)
func (db *DB) NextVersion() uint64 {
	return db.versions.Add(1)
}

// Frozen reports whether the system is between a crash and the completion
// of restart recovery, during which transaction processing stalls.
func (db *DB) Frozen() bool { return db.frozen.Load() }

// parWorkers returns restart recovery's goroutine fan-out: Cfg.RecoveryWorkers
// when it asks for real parallelism, 0 when every phase runs inline
// (RecoveryWorkers of 0 or 1).
func (db *DB) parWorkers() int {
	if w := db.Cfg.RecoveryWorkers; w > 1 {
		return w
	}
	return 0
}

// logForceCost is the simulated price of one physical log force.
func (db *DB) logForceCost() int64 {
	c := db.M.Config().Cost
	if db.Cfg.NVRAMLog {
		return c.LogForceNVRAM
	}
	return c.LogForce
}

// Begin registers a new transaction on node nd.
func (db *DB) Begin(nd machine.NodeID) (wal.TxnID, error) {
	if !db.M.Alive(nd) {
		return 0, machine.ErrNodeDown
	}
	now := db.M.Clock(nd)
	nc := &db.nodes[nd]
	st := &txnState{beginSim: now}
	st.locks, st.writes = st.lockBuf[:0], st.writeBuf[:0]
	nc.mu.Lock()
	st.id = wal.MakeTxnID(nd, nc.seq.Load()+1)
	nc.add(st)
	nc.mu.Unlock()
	db.Observer().Instant(obs.KindTxnBegin, int32(nd), now, int64(st.id), 0)
	db.wfp.Load().Begin(int64(st.id), int32(nd), now)
	return st.id, nil
}

// Status returns a transaction's lifecycle state.
func (db *DB) Status(t wal.TxnID) (TxnStatus, bool) {
	st := db.lookup(t)
	if st == nil {
		return 0, false
	}
	return st.stat(), true
}

// ActiveTxns returns the active transactions, optionally filtered to a node,
// in ascending TxnID order. The order is deterministic so callers that mutate
// state per transaction — like the chaos harness's stranded-transaction
// rollback — behave identically across runs, which the chaos replay machinery
// depends on.
func (db *DB) ActiveTxns(node machine.NodeID) []wal.TxnID {
	var out []wal.TxnID
	db.eachTxn(func(_ *nodeCtl, st *txnState) {
		if st.live() && (node == machine.NoNode || st.id.Node() == node) {
			out = append(out, st.id)
		}
	})
	return out
}

// txn fetches a transaction's state and its node's control block, failing if
// the transaction is unknown. Lock-free.
func (db *DB) txn(t wal.TxnID) (*nodeCtl, *txnState, error) {
	st := db.lookup(t)
	if st == nil {
		return nil, nil, fmt.Errorf("recovery: unknown transaction %v", t)
	}
	return &db.nodes[t.Node()], st, nil
}

// NoteLock records a lock held by t (node-local bookkeeping for release at
// commit/abort).
func (db *DB) NoteLock(t wal.TxnID, name lock.Name, mode lock.Mode) {
	nc, st, err := db.txn(t)
	if err != nil {
		return
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for i := range st.locks {
		if st.locks[i].name == name {
			if mode > st.locks[i].mode {
				st.locks[i].mode = mode
			}
			return
		}
	}
	st.locks = append(st.locks, heldLock{name: name, mode: mode})
}

// WriteCount returns how many updates a transaction has applied (for
// lost-work accounting in experiments).
func (db *DB) WriteCount(t wal.TxnID) int {
	nc, st, err := db.txn(t)
	if err != nil {
		return 0
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return len(st.writes)
}

// HeldLocks returns the locks a transaction's node-local state records.
func (db *DB) HeldLocks(t wal.TxnID) []lock.Name { return db.AppendHeldLocks(nil, t) }

// AppendHeldLocks appends the locks a transaction's node-local state records
// to dst, in one section of its node's mutex.
func (db *DB) AppendHeldLocks(dst []lock.Name, t wal.TxnID) []lock.Name {
	nc, st, err := db.txn(t)
	if err != nil {
		return dst
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for _, h := range st.locks {
		dst = append(dst, h.name)
	}
	return dst
}
