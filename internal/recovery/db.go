package recovery

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"smdb/internal/buffer"
	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
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
	// RecoveryWorkers is ignored: restart recovery runs every phase on the
	// calling goroutine, and any value is accepted. It remains only because
	// the benchmark module still sets it; the next change to the benchmark
	// (ROADMAP item 8b) drops it.
	RecoveryWorkers int
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

// writeRec records one update a transaction made: the slot and the update
// record's log position (0 while AblatedNoLBM defers the record).
type writeRec struct {
	rid heap.RID
	lsn wal.LSN
}

// txnState is the node-local control state of one transaction. A node crash
// destroys the txnState of its transactions (the "control state (registers,
// stack, etc.)" of section 3.1); the engine keeps their entries, marked by
// the crashed flag. Restart recovery reads only their outcome (status and
// crashed flag: txnDead, settling the victims, dooming a parallel family)
// and rediscovers the rest from stable logs and undo tags; the IFA checker
// also reads their write lists.
//
// id, beginSim and logFloor never change. status and crashed are written
// under the node's mutex and read anywhere; every other field is guarded by
// the node's mutex (see nodeCtl).
type txnState struct {
	id      wal.TxnID
	status  atomic.Int32 // a TxnStatus
	crashed atomic.Bool  // its node crashed while it was active
	// beginSim is the node's simulated clock at Begin, for commit-latency
	// observation.
	beginSim int64
	// logFloor is the node log's next LSN at Begin: a lower bound on the
	// transaction's first record, for Checkpoint's low-water mark.
	logFloor wal.LSN
	// locks are the locks the transaction holds, in grant order; wants are
	// its requests not yet granted (at most one, unless its driver moved on
	// from a queued request). See locks.go.
	locks, wants []LockEntry
	// writes lists the undoable (non-NTA) updates the transaction applied, in
	// order, with their log positions: the index of its undo chain (an update
	// record's PrevLSN is the tail's LSN; Abort starts at the tail), the slots
	// whose tags Commit clears, and the IFA checker's index of its updates.
	writes []writeRec
	// nta > 0 while a nested top-level action is open.
	nta uint64
	// global > 0 marks a branch of a parallel (multi-node) transaction.
	global uint64
	// deferred holds the transaction's update records until it commits —
	// only used by the AblatedNoLBM negative control, which logs at commit.
	deferred []wal.Record
	// lockBuf, wantBuf and writeBuf back locks, wants and writes until the
	// transaction outgrows them, so an ordinary transaction's bookkeeping
	// lives in its table entry instead of slices doubling their way up.
	lockBuf  [8]LockEntry
	wantBuf  [1]LockEntry
	writeBuf [8]writeRec
}

// lastUndoable returns the LSN of the transaction's most recent undoable
// update, 0 if none (or not logged yet: AblatedNoLBM). Caller holds nc.mu.
func (st *txnState) lastUndoable() wal.LSN {
	if n := len(st.writes); n > 0 {
		return st.writes[n-1].lsn
	}
	return 0
}

// stat returns the transaction's lifecycle state.
func (st *txnState) stat() TxnStatus { return TxnStatus(st.status.Load()) }

// live reports whether the transaction is active on a node that has not
// crashed under it. It only ever goes from true to false: status leaves
// TxnActive once and never returns, and crashed is only ever set.
func (st *txnState) live() bool { return st.stat() == TxnActive && !st.crashed.Load() }

// dead reports whether the transaction aborted, or its node crashed under it
// and it did not settle as committed. A transaction dies only from live.
func (st *txnState) dead() bool {
	s := st.stat()
	return s == TxnAborted || st.crashed.Load() && s != TxnCommitted
}

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

	// versions is the global update-version counter (NextVersion). Every
	// update adds to it, while every operation reads the fields around it,
	// so it has a cache line to itself: 56 bytes of padding either side
	// keep any other field off its line wherever the allocator puts the DB.
	_        [56]byte
	versions atomic.Uint64
	_        [56]byte

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

	// nodes is the per-node control state (transaction tables, counters):
	// everything a single-node transaction touches.
	nodes []nodeCtl

	// redo and redoLines are restart redo's per-slot table and line list
	// (see applyRedo), sized with the store so that an apply pass allocates
	// nothing; Recover calls must not overlap.
	redo      []redoSlot
	redoLines []int

	// mu guards what belongs to no node and is off the forward path:
	// restart recovery's own counters.
	mu       sync.Mutex
	recStats Stats

	// attachMu serializes Attach. It is not mu: a flight dump holds the
	// recorder's mutex while its stats writer takes mu, and Attach takes the
	// recorder's mutex to set its sources.
	attachMu sync.Mutex
	// hk is the attached observability consumer set (never nil; the zero
	// set when nothing is attached): see Attach. The hot paths load it once
	// per operation with no lock held, lbmTrigger with a machine stripe held.
	hk atomic.Pointer[hooks.Set]
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
		node := machine.NodeID(i)
		logs[i], err = wal.NewClockedLog(node, storage.NewLogDevice(), func() int64 { return m.Clock(node) })
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
		Logs:  logs,
		Locks: locks,
		nodes: make([]nodeCtl, m.Nodes()),
		redo:  make([]redoSlot, cfg.Pages*layout.SlotsPerPage()),
	}
	db.redoLines = make([]int, 0, cfg.Pages*(layout.LinesPerPage-1))
	db.BM = buffer.NewManager(store, disk, logs, db.LogForceCost)
	db.hk.Store(new(hooks.Set))
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
		return
	}
	db.schedp.Store(s)
	db.BM.SetFetchHook(func(nd machine.NodeID, p storage.PageID) {
		s.Point(int32(nd), sched.SiteFetch, int64(p))
	})
	if s.Recording() {
		db.M.SetSchedNote(func(nd machine.NodeID, site string, l machine.LineID) {
			s.Note(int32(nd), site, int64(l))
		})
	} else {
		db.M.SetSchedNote(nil)
	}
}

// SchedPoint forwards a scheduling decision to the attached session. With
// none attached (or outside an episode's armed window) it returns arg
// unchanged at the cost of one atomic load.
func (db *DB) SchedPoint(actor int32, site string, arg int64) int64 {
	return db.schedp.Load().Point(actor, site, arg)
}

// Attach publishes set as the engine's observability consumers, replacing
// whatever was attached: one pointer swap for the protocol layer, and the
// set's observer handed to the machine, each node's WAL, the lock manager
// and the buffer manager. Everything that depends on several consumers at
// once is derived here from the set as a whole — the observer's sink (the
// set itself) and the flight recorder's sources (set.Sources plus this
// engine's stats deltas) — so neither the order the set's fields were
// assigned in nor the order of Attach against AttachSched/AttachFaults
// matters. The zero set detaches everything. Safe
// mid-run: an operation straddling the swap reports to the set it loaded.
//
// The observer's sink belongs to the set only while the set folds events (a
// model, a Waterfall or a Debt): a sink the caller installed on the observer
// itself survives Attach of a set without one.
func (db *DB) Attach(set hooks.Set) {
	h := &set
	db.attachMu.Lock()
	defer db.attachMu.Unlock()
	prev := db.hk.Load()
	if h.Deps != nil && h.Audit != nil && h.Audit.Model() != h.Deps {
		panic("recovery: Attach of a set whose Audit does not read its Deps")
	}
	if h.Observer == nil && (h.Waterfall != nil || h.Debt != nil) {
		panic("recovery: Attach of a Waterfall or a Debt without the Observer whose events they fold")
	}
	folds := func(s *hooks.Set) bool { return s.Model() != nil || s.Waterfall != nil || s.Debt != nil }
	if folds(prev) {
		prev.Observer.SetSink(nil)
	}
	if folds(h) {
		h.Observer.SetSink(h)
	}
	if h.Flight != nil {
		src := h.Sources()
		src.Stats = db.statsDeltaWriter()
		h.Flight.SetSources(src)
	}
	db.M.SetHooks(h.Observer)
	for _, l := range db.Logs {
		l.SetHooks(h.Observer)
	}
	db.Locks.SetHooks(h.Observer)
	db.BM.SetHooks(h.Observer)
	db.hk.Store(h)
}

// AttachObserver is Attach of the set holding only o (nil detaches).
func (db *DB) AttachObserver(o *obs.Observer) { db.Attach(hooks.Set{Observer: o}) }

// Hooks returns the attached consumer set, never nil (the zero set when
// nothing is attached) and never written again: to change one consumer, copy
// the set, change the copy and Attach it.
func (db *DB) Hooks() *hooks.Set { return db.hk.Load() }

// statsDeltaWriter returns a flight-recorder stats writer: machine and
// protocol counters as deltas since the writer's previous call, so each dump
// reads as "what happened since the last one".
func (db *DB) statsDeltaWriter() func(io.Writer) error {
	var prevM machine.Stats
	var prevP Stats
	var prevMu sync.Mutex
	return func(w io.Writer) error {
		curM := db.M.Stats()
		curP := db.Stats()
		prevMu.Lock()
		dM := curM.Sub(prevM)
		dP := curP.Sub(prevP)
		prevM, prevP = curM, curP
		prevMu.Unlock()
		fmt.Fprintf(w, "machine stats delta: %+v\n\nprotocol stats delta: %+v\n", dM, dP)
		return nil
	}
}

// DumpFlight writes a flight-recorder dump with the given reason, returning
// its directory. Without a recorder attached it returns ("", nil).
func (db *DB) DumpFlight(reason string) (string, error) {
	return db.hk.Load().Flight.Dump(reason)
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

// LogForceCost is the simulated price of one physical log force on this
// engine: the cost model's LogForceNVRAM under NVRAMLog, LogForce otherwise.
func (db *DB) LogForceCost() int64 {
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
	floor := db.Logs[nd].NextLSN()
	nc := &db.nodes[nd]
	nc.mu.Lock()
	st, seq := nc.add()
	st.id, st.beginSim, st.logFloor = wal.MakeTxnID(nd, seq), now, floor
	st.locks, st.wants, st.writes = st.lockBuf[:0], st.wantBuf[:0], st.writeBuf[:0]
	nc.seq.Store(seq)
	nc.mu.Unlock()
	db.hk.Load().Observer.Instant(obs.KindTxnBegin, int32(nd), now, int64(st.id), 0)
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
