package recovery

import (
	"fmt"
	"slices"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// Parallel transactions (paper section 9): "For a parallel transaction
// (one which executes on multiple nodes), the recovery measures are similar
// to those for independent transactions. However, if one of the nodes
// executing this transaction were to crash, the entire transaction must be
// aborted."
//
// A parallel transaction is a set of per-node branches, each an ordinary
// transaction in its node's failure domain, bound by a global identifier.
// Commit is coordinated: every branch's log is forced through its commit
// record before the global commit is acknowledged (all branches run on one
// machine, so a simple force-all suffices — there is no network partition
// to 2PC against). At restart recovery, if any branch's node crashed, the
// surviving branches are rolled back too, using their own (intact) volatile
// logs.

// GlobalID identifies a parallel transaction.
type GlobalID uint64

// BeginGlobal registers a new parallel transaction.
func (db *DB) BeginGlobal() GlobalID {
	return GlobalID(db.NextVersion())
}

// BeginBranch starts this parallel transaction's branch on node nd. A
// global transaction may have at most one branch per node.
func (db *DB) BeginBranch(g GlobalID, nd machine.NodeID) (wal.TxnID, error) {
	if g == 0 {
		return 0, fmt.Errorf("recovery: zero global id")
	}
	id, err := db.Begin(nd)
	if err != nil {
		return 0, err
	}
	// A family's branches on nd are all in nd's list: one node's section.
	nc, mine := &db.nodes[nd], db.lookup(id)
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if slices.ContainsFunc(nc.branches, func(st *txnState) bool { return st.global == uint64(g) }) {
		return 0, fmt.Errorf("recovery: global %d already has a branch on node %d", g, nd)
	}
	mine.global = uint64(g)
	nc.branches = append(nc.branches, mine)
	return id, nil
}

// eachBranch calls fn with every parallel-transaction branch, node by node
// under each node's mutex.
func (db *DB) eachBranch(fn func(st *txnState)) {
	for i := range db.nodes {
		nc := &db.nodes[i]
		nc.mu.Lock()
		for _, st := range nc.branches {
			fn(st)
		}
		nc.mu.Unlock()
	}
}

// Branches returns the branch transactions of g, in node order.
func (db *DB) Branches(g GlobalID) []wal.TxnID {
	var out []wal.TxnID
	db.eachBranch(func(st *txnState) {
		if st.global == uint64(g) {
			out = append(out, st.id)
		}
	})
	return out
}

// CommitGlobal commits every branch of g atomically with respect to
// failures: commit records are appended to every branch's log, then every
// log is forced, and only then are the branches marked committed. If any
// branch's node is down the global transaction cannot commit.
func (db *DB) CommitGlobal(g GlobalID) error {
	branches := db.Branches(g)
	if len(branches) == 0 {
		return fmt.Errorf("recovery: global %d has no branches", g)
	}
	for _, t := range branches {
		_, st, err := db.txn(t)
		if err != nil {
			return err
		}
		if s := st.stat(); s != TxnActive {
			return fmt.Errorf("recovery: branch %v is %v", t, s)
		}
		if !db.M.Alive(t.Node()) {
			return fmt.Errorf("recovery: branch %v's node is down: %w", t, machine.ErrNodeDown)
		}
	}
	// Phase 1: append commit records everywhere (the global id in the
	// record ties the branch commits together for any log-based audit).
	lsns := make(map[wal.TxnID]wal.LSN, len(branches))
	for _, t := range branches {
		nc, st, err := db.txn(t)
		if err != nil {
			return err
		}
		db.flushDeferred(nc, st)
		lsns[t] = db.Logs[t.Node()].Append(wal.Record{Type: wal.TypeCommit, Txn: t, NTA: uint64(g)})
	}
	// Phase 2: force all logs; a crash of any node before every force
	// completes leaves at least one branch without a stable commit, and
	// restart recovery will then abort the whole family (a branch with a
	// stable commit record but an aborted sibling is repaired by the
	// global-abort pass below).
	for _, t := range branches {
		if err := db.forceThrough(t.Node(), t, lsns[t], &db.nodes[t.Node()].commitForces); err != nil {
			return fmt.Errorf("recovery: global commit %d: %w", g, err)
		}
		if lsns[t] == 0 || db.Logs[t.Node()].ForcedLSN() < lsns[t] {
			return fmt.Errorf("recovery: global commit %d interrupted by failure of branch %v: %w",
				g, t, machine.ErrNodeDown)
		}
	}
	// Finalize: tags cleared, status flipped, locks released
	// — branch by branch in node order.
	for _, t := range branches {
		nc, st, err := db.txn(t)
		if err != nil {
			return err
		}
		if err := db.finalizeCommit(nc, st); err != nil {
			return err
		}
	}
	return nil
}

// finalizeCommit performs the post-force commit work of one transaction
// (shared by Commit and CommitGlobal): undo tags are cleared, the
// transaction is marked committed, and its locks are released.
//
// Two sections of the node's mutex bracket the tag clears (machine calls, so
// no mutex may be held across them): the first folds the write list down to
// one entry per slot, the second publishes the outcome.
func (db *DB) finalizeCommit(nc *nodeCtl, st *txnState) error {
	t, nd := st.id, st.id.Node()
	nc.mu.Lock()
	dedupeWrites(st)
	writes := st.writes
	nc.mu.Unlock()
	// The write list is final from here on (only its owner appends, and it
	// is committing); others read it, which reading it here does not
	// disturb.
	var cleared int64
	for i := range writes {
		ok, err := db.clearTag(nd, writes[i].rid)
		if err != nil {
			return err
		}
		if ok {
			cleared++
		}
	}
	nc.mu.Lock()
	st.deferred = nil
	st.status.Store(int32(TxnCommitted))
	nc.stats.Commits++
	nc.stats.TagClears += cleared
	nc.mu.Unlock()
	if o := db.hk.Load().Observer; o != nil {
		now := db.M.Clock(nd)
		o.Instant(obs.KindTxnCommit, int32(nd), now, int64(t), 0)
		o.ObserveCommit(now - st.beginSim)
	}
	return db.ReleaseLocks(t)
}

// dedupeWrites folds st.writes, in place, to the first write per slot, in
// the order the tags are cleared in. A transaction writes at most a few
// dozen slots, so the scan is quadratic rather than a map per commit. Caller
// holds the node's mutex.
func dedupeWrites(st *txnState) {
	kept := st.writes[:0]
	for _, w := range st.writes {
		if !slices.ContainsFunc(kept, func(k writeRec) bool { return k.rid == w.rid }) {
			kept = append(kept, w)
		}
	}
	st.writes = kept
}

// AbortGlobal rolls back every live branch of g. Branches on crashed nodes
// are left for restart recovery.
func (db *DB) AbortGlobal(g GlobalID) error {
	for _, t := range db.Branches(g) {
		_, st, err := db.txn(t)
		if err != nil {
			return err
		}
		if !st.live() {
			continue
		}
		if err := db.Abort(t.Node(), t); err != nil {
			return err
		}
	}
	return nil
}

// abortOrphanedBranches is the restart-recovery pass for parallel
// transactions: any surviving active branch whose global family lost a
// branch to a crash is rolled back (using its own intact log) and its locks
// are released with it. Returns the branches aborted.
func (db *DB) abortOrphanedBranches(rep *RecoveryReport) ([]wal.TxnID, error) {
	// Globals with a crashed branch.
	doomed := make(map[uint64]bool)
	db.eachBranch(func(st *txnState) {
		if st.crashed.Load() {
			doomed[st.global] = true
		}
	})
	var victims []wal.TxnID
	db.eachBranch(func(st *txnState) {
		if doomed[st.global] && st.live() {
			victims = append(victims, st.id)
		}
	})
	for _, t := range victims {
		if err := db.Abort(t.Node(), t); err != nil {
			return victims, fmt.Errorf("recovery: aborting orphaned branch %v: %w", t, err)
		}
		nc := &db.nodes[t.Node()]
		nc.mu.Lock()
		nc.stats.TxnsAbortedByRecovery++
		nc.mu.Unlock()
		rep.Aborted = append(rep.Aborted, t)
	}
	return victims, nil
}
