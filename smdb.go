// Package smdb is a shared-memory multiprocessor database engine with
// crash-recovery protocols that guarantee Isolated Failure Atomicity (IFA),
// reproducing Molesky & Ramamritham, "Recovery Protocols for Shared Memory
// Database Systems" (SIGMOD 1995).
//
// The engine runs on a simulated cache-coherent multiprocessor: a database
// opened with N nodes behaves like N processor/memory pairs sharing a
// coherent address space, where any node can crash independently, destroying
// exactly its own cache contents. Records, the lock table, and the B+-tree
// index live in that shared memory, so their cache lines migrate between
// nodes as a side effect of ordinary access — the failure-coupling problem
// the paper's protocols solve.
//
// Typical use:
//
//	db, err := smdb.Open(smdb.Options{Nodes: 4, Protocol: smdb.VolatileSelectiveRedo})
//	...
//	tx, err := db.Begin(0)                 // a transaction on node 0
//	err = tx.Write(smdb.NewRID(0, 3), []byte("hello"))
//	err = tx.Commit()
//
//	db.Crash(2)                            // node 2 fails
//	rep, err := db.Recover()               // survivors restore IFA
//	violations := db.CheckIFA()            // empty: nothing unnecessary was lost
package smdb

import (
	"smdb/internal/btree"
	"smdb/internal/buffer"
	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// Protocol selects the recovery protocol. See the recovery package for the
// full semantics of each.
type Protocol = recovery.Protocol

// The available protocols (paper sections 4-5).
const (
	// BaselineFA is conventional recovery: any node crash reboots the
	// whole machine and aborts every active transaction.
	BaselineFA = recovery.BaselineFA
	// VolatileRedoAll is Volatile LBM with the Redo All restart scheme.
	VolatileRedoAll = recovery.VolatileRedoAll
	// VolatileSelectiveRedo is Volatile LBM with Selective Redo and undo
	// tags — the paper's recommended low-overhead protocol.
	VolatileSelectiveRedo = recovery.VolatileSelectiveRedo
	// StableEager is Stable LBM with a log force on every update.
	StableEager = recovery.StableEager
	// StableTriggered is Stable LBM with coherency-triggered forces.
	StableTriggered = recovery.StableTriggered
	// AblatedNoLBM is a negative control (logging deferred to commit; no
	// logging-before-migration) that demonstrably violates IFA — see the
	// recovery package documentation.
	AblatedNoLBM = recovery.AblatedNoLBM
)

// Coherency selects the hardware cache-coherency protocol.
type Coherency = machine.Coherency

// The coherency protocols.
const (
	WriteInvalidate = machine.WriteInvalidate
	WriteBroadcast  = machine.WriteBroadcast
)

// RID identifies a record (page, slot).
type RID = heap.RID

// NewRID builds a record identifier.
func NewRID(page int32, slot uint16) RID {
	return RID{Page: storage.PageID(page), Slot: slot}
}

// NodeID identifies a processor/memory pair (0-based).
type NodeID = machine.NodeID

// TxnID identifies a transaction; its node is recoverable from it.
type TxnID = wal.TxnID

// Txn is a transaction handle. See internal/txn for method documentation;
// the essentials are Read, Write, Insert, Delete, Commit, Abort, and the
// ErrBlocked/ErrDeadlock retry contract.
type Txn = txn.Txn

// Tree is a shared-memory B+-tree index.
type Tree = btree.Tree

// CrashReport and RecoveryReport describe failure damage and recovery work.
type (
	CrashReport    = machine.CrashReport
	RecoveryReport = recovery.RecoveryReport
)

// Common errors surfaced through the public API.
var (
	ErrBlocked     = txn.ErrBlocked
	ErrDeadlock    = txn.ErrDeadlock
	ErrNotFound    = txn.ErrNotFound
	ErrNodeDown    = machine.ErrNodeDown
	ErrKeyExists   = btree.ErrKeyExists
	ErrKeyNotFound = btree.ErrKeyNotFound
)

// Options configures a database.
type Options struct {
	// Nodes is the number of processor/memory pairs (default 4, max 64).
	Nodes int
	// Protocol selects the recovery protocol (default VolatileSelectiveRedo).
	Protocol Protocol
	// Coherency selects write-invalidate (default) or write-broadcast.
	Coherency Coherency
	// RecordsPerLine is how many records share one 128-byte cache line
	// (default 4) — the paper's central sharing knob.
	RecordsPerLine int
	// Pages is the heap size in pages (default 64). LinesPerPage is the
	// page size in cache lines (default 8).
	Pages, LinesPerPage int
	// IndexPages reserves that many of the pages for a B+-tree index
	// (default 0: no index). The index occupies the tail of the page
	// range; heap RIDs should stay below Pages-IndexPages.
	IndexPages int
	// LockTableLines sizes the shared-memory lock table (default 512).
	LockTableLines int
	// ChainedLCBs lets lock control blocks span multiple cache lines;
	// recovery then drops and rebuilds whole broken chains (the paper's
	// harder lock-table organization).
	ChainedLCBs bool
	// NVRAMLog prices stable log forces as battery-backed RAM instead of
	// rotational disk.
	NVRAMLog bool
	// DirtyReads permits lock-free reads (browse isolation).
	DirtyReads bool
	// Observer, when non-nil, attaches the observability layer: every
	// coherency event, log append/force, lock decision, transaction
	// boundary, crash, and recovery phase is traced into per-node ring
	// buffers, and line-lock / commit / log-force latencies feed
	// histograms. A nil Observer (the default) costs one pointer test per
	// hook. See package internal/obs (obs.New, WriteChromeTrace,
	// WritePrometheus).
	Observer *obs.Observer
}

// DB is an open shared-memory database.
type DB struct {
	// Engine exposes the underlying recovery engine for experiments and
	// advanced use (statistics, checkpoints, structural operations).
	Engine *recovery.DB
	// Index is the B+-tree, non-nil when Options.IndexPages > 0.
	Index *Tree

	mgr     *txn.Manager
	crashed []NodeID
}

// Open creates a database on a fresh simulated machine.
func Open(opts Options) (*DB, error) {
	cfg := recovery.Config{
		Machine: machine.Config{
			Nodes:     opts.Nodes,
			Coherency: opts.Coherency,
		},
		Protocol:       opts.Protocol,
		RecsPerLine:    opts.RecordsPerLine,
		LinesPerPage:   opts.LinesPerPage,
		Pages:          opts.Pages,
		LockTableLines: opts.LockTableLines,
		ChainedLCBs:    opts.ChainedLCBs,
		NVRAMLog:       opts.NVRAMLog,
		DirtyReads:     opts.DirtyReads,
	}
	if cfg.Pages == 0 {
		cfg.Pages = 64
	}
	if cfg.LinesPerPage == 0 {
		cfg.LinesPerPage = 8
	}
	// Size shared memory to fit the heap, lock table, and slack.
	if cfg.Machine.Lines == 0 {
		lockLines := cfg.LockTableLines
		if lockLines == 0 {
			lockLines = 512
		}
		cfg.Machine.Lines = cfg.Pages*cfg.LinesPerPage + lockLines + 64
	}
	eng, err := recovery.New(cfg)
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		eng.AttachObserver(opts.Observer)
	}
	db := &DB{Engine: eng, mgr: txn.NewManager(eng)}
	if opts.IndexPages > 0 {
		first := storage.PageID(cfg.Pages - opts.IndexPages)
		db.Index, err = btree.New(eng, first, opts.IndexPages)
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Begin starts a transaction on the given node.
func (db *DB) Begin(node NodeID) (*Txn, error) { return db.mgr.Begin(node) }

// ParallelTxn is a transaction parallelized across several nodes: if any
// participating node crashes, the whole transaction aborts (paper §9).
type ParallelTxn = txn.ParallelTxn

// BeginParallel starts a parallel transaction with one branch per given
// node.
func (db *DB) BeginParallel(nodes ...NodeID) (*ParallelTxn, error) {
	return db.mgr.BeginParallel(nodes...)
}

// Crash fails the given nodes, destroying their caches, volatile log tails,
// and in-flight transaction state. Call Recover afterwards.
func (db *DB) Crash(nodes ...NodeID) CrashReport {
	db.crashed = append(db.crashed, nodes...)
	return db.Engine.Crash(nodes...)
}

// Recover runs the configured restart-recovery protocol for every node
// crashed since the last Recover, returning a report of the work done.
func (db *DB) Recover() (*RecoveryReport, error) {
	crashed := db.crashed
	db.crashed = nil
	return db.Engine.Recover(crashed)
}

// RestartNode brings a crashed node back with a cold cache.
func (db *DB) RestartNode(n NodeID) error { return db.Engine.RestartNode(n) }

// Checkpoint flushes dirty pages (WAL-enforced) and writes forced
// checkpoint records, bounding future redo scans.
func (db *DB) Checkpoint() error { return db.Engine.Checkpoint(0) }

// CheckIFA verifies the isolated-failure-atomicity invariants and returns any
// violations (empty means IFA holds). It works out what each record must
// hold from the logs, the stable database and the transactions' own write
// and lock lists, independently of restart recovery.
func (db *DB) CheckIFA() []string {
	alive := db.Engine.M.AliveNodes()
	if len(alive) == 0 {
		return []string{"no surviving nodes"}
	}
	return db.Engine.CheckIFA(alive[0])
}

// AliveNodes returns the nodes currently up.
func (db *DB) AliveNodes() []NodeID { return db.Engine.M.AliveNodes() }

// Stats bundles every layer's counters.
type Stats struct {
	Machine  machine.Stats
	Buffer   buffer.Stats
	Locks    lock.Stats
	Protocol recovery.Stats
	// SimTime is the simulated makespan in nanoseconds.
	SimTime int64
}

// Sub returns the per-interval delta s - prev, layer by layer. Taking a
// snapshot before and after a workload phase and subtracting isolates that
// phase's activity from everything that ran before it.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Machine:  s.Machine.Sub(prev.Machine),
		Buffer:   s.Buffer.Sub(prev.Buffer),
		Locks:    s.Locks.Sub(prev.Locks),
		Protocol: s.Protocol.Sub(prev.Protocol),
		SimTime:  s.SimTime - prev.SimTime,
	}
}

// Stats returns a snapshot of all counters.
func (db *DB) Stats() Stats {
	return Stats{
		Machine:  db.Engine.M.Stats(),
		Buffer:   db.Engine.BM.Stats(),
		Locks:    db.Engine.Locks.Stats(),
		Protocol: db.Engine.Stats(),
		SimTime:  db.Engine.M.MaxClock(),
	}
}

// Observer returns the attached observability layer (nil if none was
// configured).
func (db *DB) Observer() *obs.Observer { return db.Engine.Hooks().Observer }
