// Package workload generates and drives synthetic transaction workloads
// against the shared-memory database. The knobs mirror the sharing
// parameters the paper's analysis turns on: how many records share a cache
// line (a layout property), how much data is shared between nodes, the
// read/write mix, and access skew. The driver is deterministic: nodes are
// stepped round-robin from a seeded PRNG, so every experiment is exactly
// reproducible; a concurrent driver (goroutine per node) is available for
// wall-clock benchmarks.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// Spec describes a workload.
type Spec struct {
	// TxnsPerNode transactions run on each node, OpsPerTxn operations
	// each.
	TxnsPerNode, OpsPerTxn int
	// ReadFraction of operations are reads (the rest are updates).
	ReadFraction float64
	// SharingFraction of operations target the globally shared record
	// pool; the rest go to the issuing node's private partition. This is
	// the knob that produces inter-node cache-line traffic.
	SharingFraction float64
	// HotSpot skews shared-pool accesses: a fraction HotProb of them hit
	// the hottest HotSpot fraction of the shared pool. Zero disables skew.
	HotSpot, HotProb float64
	// AbortFraction of transactions voluntarily abort at the end.
	AbortFraction float64
	// HeapPages restricts the workload to the first HeapPages pages of
	// the store (0 means all); experiments that reserve tail pages for an
	// index set it.
	HeapPages int
	// Seed makes the run reproducible.
	Seed int64
}

func (s *Spec) setDefaults() {
	if s.TxnsPerNode == 0 {
		s.TxnsPerNode = 8
	}
	if s.OpsPerTxn == 0 {
		s.OpsPerTxn = 8
	}
}

// Result aggregates a run.
type Result struct {
	Committed, Aborted int
	Reads, Writes      int
	// BlockedRetries counts operations re-issued after a lock wait;
	// Deadlocks counts deadlock victims (aborted and counted in Aborted).
	BlockedRetries, Deadlocks int
	// SimTime is the simulated makespan of the run in nanoseconds.
	SimTime int64
	// SimTimePerOp is SimTime divided by completed operations.
	SimTimePerOp int64
}

func (r Result) String() string {
	return fmt.Sprintf("committed=%d aborted=%d reads=%d writes=%d retries=%d deadlocks=%d simTime=%.3fms",
		r.Committed, r.Aborted, r.Reads, r.Writes, r.BlockedRetries, r.Deadlocks,
		float64(r.SimTime)/1e6)
}

// Layouts the record space: each node owns a private partition; the tail of
// the record space is the shared pool.
type space struct {
	rids    []heap.RID
	private [][]heap.RID
	shared  []heap.RID
}

func buildSpace(db *recovery.DB, pages int) space {
	if pages <= 0 || pages > db.Store.NPages {
		pages = db.Store.NPages
	}
	layout := db.Store.Layout
	var sp space
	for p := 0; p < pages; p++ {
		for s := 0; s < layout.SlotsPerPage(); s++ {
			sp.rids = append(sp.rids, heap.RID{Page: storage.PageID(p), Slot: uint16(s)})
		}
	}
	nodes := db.M.Nodes()
	// First half: private partitions; second half: shared pool.
	half := len(sp.rids) / 2
	per := half / nodes
	sp.private = make([][]heap.RID, nodes)
	for n := 0; n < nodes; n++ {
		sp.private[n] = sp.rids[n*per : (n+1)*per]
	}
	sp.shared = sp.rids[half:]
	return sp
}

// Seed populates every record of the first `pages` pages (0 = all) with an
// initial committed value and checkpoints, so experiments start from a
// stable database.
func Seed(db *recovery.DB, pages int) error {
	if pages <= 0 || pages > db.Store.NPages {
		pages = db.Store.NPages
	}
	mgr := txn.NewManager(db)
	// Seed in page-sized batches to bound the lock table footprint.
	layout := db.Store.Layout
	for p := 0; p < pages; p++ {
		tx, err := mgr.Begin(0)
		if err != nil {
			return err
		}
		for s := 0; s < layout.SlotsPerPage(); s++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(s)}
			if err := tx.Insert(rid, []byte{1, byte(p), byte(s)}); err != nil {
				return fmt.Errorf("workload: seeding %v: %w", rid, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return db.Checkpoint(0)
}

// Runner drives a Spec against a database.
type Runner struct {
	DB   *recovery.DB
	Mgr  *txn.Manager
	Spec Spec
	// Sched, when non-nil, records or replays the concurrent driver's
	// scheduling decisions (stop observations, and — through the DB's
	// attached session — every operation's check and fetch points). Set by
	// the chaos harness; nil for plain runs.
	Sched *sched.Session

	sp  space
	rng *rand.Rand
	// live counts RunConcurrent's workers still running.
	live atomic.Int32

	// abandoned lists the deadlock victims the deferred-logging negative
	// control could not abort: still active, their locks shed mid-run (so
	// others may have overwritten what they wrote). Guarded by abandonedMu.
	abandonedMu sync.Mutex
	abandoned   []wal.TxnID
}

// Abandoned returns the transactions the concurrent driver's workers gave
// up on without finishing (the deferred-logging control's deadlock victims).
func (r *Runner) Abandoned() []wal.TxnID {
	r.abandonedMu.Lock()
	defer r.abandonedMu.Unlock()
	return append([]wal.TxnID(nil), r.abandoned...)
}

// LiveWorkers returns how many of RunConcurrent's workers are still running.
func (r *Runner) LiveWorkers() int { return int(r.live.Load()) }

// NewRunner builds a deterministic runner. Call Seed first.
func NewRunner(db *recovery.DB, spec Spec) *Runner {
	spec.setDefaults()
	return &Runner{
		DB:   db,
		Mgr:  txn.NewManager(db),
		Spec: spec,
		sp:   buildSpace(db, spec.HeapPages),
		rng:  rand.New(rand.NewSource(spec.Seed)),
	}
}

// pickRID chooses the target record for one operation by node nd, drawing
// from the runner's own PRNG.
func (r *Runner) pickRID(nd machine.NodeID) heap.RID { return r.pickRIDWith(r.rng, nd) }

// nodeState tracks one node's progress through its transaction quota.
type nodeState struct {
	tx        *txn.Txn
	txnsLeft  int
	opsLeft   int
	willAbort bool
	// pending is the operation blocked on a lock, retried verbatim on the
	// node's next turns (abandoning it would leak its queued request).
	pending     *heap.RID
	pendingRead bool
}

// Run executes the workload round-robin across all live nodes and returns
// the aggregate result. Operations that block are retried on the node's
// next turn; deadlock victims abort and are replaced.
func (r *Runner) Run() (Result, error) { return r.rounds(-1) }

// RunUntilMidFlight runs opsBudget round-robin rounds and stops, leaving
// whatever transactions are then in flight active (for crash experiments that
// want victims mid-transaction).
func (r *Runner) RunUntilMidFlight(opsBudget int) (Result, error) { return r.rounds(opsBudget) }

// rounds steps every live node in turn, budget times over (budget < 0: until
// every node has finished its quota).
func (r *Runner) rounds(budget int) (Result, error) {
	var res Result
	start := r.DB.M.MaxClock()
	nodes := r.DB.M.AliveNodes()
	states := make(map[machine.NodeID]*nodeState, len(nodes))
	for _, nd := range nodes {
		states[nd] = &nodeState{txnsLeft: r.Spec.TxnsPerNode}
	}
	for work := true; work && budget != 0; budget-- {
		work = false
		for _, nd := range nodes {
			st := states[nd]
			if err := r.stepNode(nd, st, &res); err != nil {
				return res, err
			}
			work = work || st.txnsLeft > 0 || st.tx != nil
		}
	}
	res.setSimTime(r.DB.M.MaxClock() - start)
	return res, nil
}

// setSimTime records the run's simulated duration and its per-operation share.
func (res *Result) setSimTime(d int64) {
	res.SimTime = d
	if ops := res.Reads + res.Writes; ops > 0 {
		res.SimTimePerOp = d / int64(ops)
	}
}

// stepNode advances one node by one operation (or txn boundary).
func (r *Runner) stepNode(nd machine.NodeID, st *nodeState, res *Result) error {
	if st.tx == nil {
		if st.txnsLeft == 0 {
			return nil
		}
		tx, err := r.Mgr.Begin(nd)
		if err != nil {
			return err
		}
		st.tx = tx
		st.txnsLeft--
		st.opsLeft = r.Spec.OpsPerTxn
		st.willAbort = r.rng.Float64() < r.Spec.AbortFraction
		return nil
	}
	if st.opsLeft == 0 {
		var err error
		if st.willAbort {
			err = st.tx.Abort()
			res.Aborted++
		} else {
			err = st.tx.Commit()
			res.Committed++
		}
		st.tx = nil
		return err
	}
	var rid heap.RID
	var read bool
	if st.pending != nil {
		rid, read = *st.pending, st.pendingRead
	} else {
		rid = r.pickRID(nd)
		read = r.rng.Float64() < r.Spec.ReadFraction
	}
	var err error
	if read {
		_, err = st.tx.Read(rid)
		if err == nil {
			res.Reads++
		}
	} else {
		err = st.tx.Write(rid, []byte{byte(r.rng.Intn(250) + 2), byte(nd)})
		if err == nil {
			res.Writes++
		}
	}
	switch {
	case err == nil:
		st.opsLeft--
		st.pending = nil
	case errors.Is(err, txn.ErrBlocked):
		res.BlockedRetries++
		st.pending = &rid
		st.pendingRead = read
	case errors.Is(err, txn.ErrDeadlock):
		res.Deadlocks++
		res.Aborted++
		if err := st.tx.Abort(); err != nil {
			return err
		}
		st.tx = nil
		st.pending = nil
	case errors.Is(err, txn.ErrNotFound):
		// A concurrent (or own) delete made the record invisible; count
		// the read and move on.
		st.opsLeft--
		st.pending = nil
	default:
		return fmt.Errorf("workload: node %d op on %v: %w", nd, rid, err)
	}
	return nil
}
