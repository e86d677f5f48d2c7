package recovery

import (
	"fmt"

	"smdb/benchmark/refengine/heap"
	"smdb/benchmark/refengine/machine"
	"smdb/benchmark/refengine/obs"
	"smdb/benchmark/refengine/obs/waterfall"
	"smdb/benchmark/refengine/wal"
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
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, st := range db.txns {
		if st.global == uint64(g) && st.id.Node() == nd && st.id != id {
			return 0, fmt.Errorf("recovery: global %d already has a branch on node %d", g, nd)
		}
	}
	db.txns[id].global = uint64(g)
	return id, nil
}

// Branches returns the branch transactions of g, in node order.
func (db *DB) Branches(g GlobalID) []wal.TxnID {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []wal.TxnID
	for _, st := range db.txns {
		if st.global == uint64(g) {
			out = append(out, st.id)
		}
	}
	sortTxns(out)
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
		st, err := db.txn(t)
		if err != nil {
			return err
		}
		if st.status != TxnActive {
			return fmt.Errorf("recovery: branch %v is %v", t, st.status)
		}
		if !db.M.Alive(t.Node()) {
			return fmt.Errorf("recovery: branch %v's node is down: %w", t, machine.ErrNodeDown)
		}
	}
	// Phase 1: append commit records everywhere (the global id in the
	// record ties the branch commits together for any log-based audit).
	lsns := make(map[wal.TxnID]wal.LSN, len(branches))
	for _, t := range branches {
		st, err := db.txn(t)
		if err != nil {
			return err
		}
		db.flushDeferred(t.Node(), st)
		lsns[t] = db.Logs[t.Node()].Append(wal.Record{Type: wal.TypeCommit, Txn: t, NTA: uint64(g)})
	}
	// Phase 2: force all logs; a crash of any node before every force
	// completes leaves at least one branch without a stable commit, and
	// restart recovery will then abort the whole family (a branch with a
	// stable commit record but an aborted sibling is repaired by the
	// global-abort pass below).
	for _, t := range branches {
		if err := db.forceCommit(t.Node(), t, lsns[t]); err != nil {
			return fmt.Errorf("recovery: global commit %d: %w", g, err)
		}
		if lsns[t] == 0 || db.Logs[t.Node()].ForcedLSN() < lsns[t] {
			return fmt.Errorf("recovery: global commit %d interrupted by failure of branch %v: %w",
				g, t, machine.ErrNodeDown)
		}
	}
	// Finalize: tags cleared, oracle updated, status flipped.
	for _, t := range branches {
		if err := db.finalizeCommit(t); err != nil {
			return err
		}
	}
	return nil
}

// finalizeCommit performs the post-force commit work of one transaction
// (shared by Commit and CommitGlobal): undo tags are cleared and the
// oracle's last-committed images advance to the transaction's own final
// write images. The images come from the transaction's write records, never
// from re-reading the slots — a commit racing a concurrent node crash could
// otherwise observe a stale disk reinstall and poison the oracle while the
// database itself recovers correctly.
func (db *DB) finalizeCommit(t wal.TxnID) error {
	st, err := db.txn(t)
	if err != nil {
		return err
	}
	nd := t.Node()
	db.mu.Lock()
	latest := make(map[heap.RID]writeRec, len(st.writes))
	order := make([]heap.RID, 0, len(st.writes))
	for _, w := range st.writes {
		if prev, ok := latest[w.rid]; !ok {
			order = append(order, w.rid)
			latest[w.rid] = w
		} else if w.version > prev.version {
			latest[w.rid] = w
		}
	}
	db.mu.Unlock()
	for _, rid := range order {
		if err := db.clearTag(nd, rid); err != nil {
			return err
		}
	}
	db.mu.Lock()
	for rid, w := range latest {
		if ci, ok := db.committed[rid]; !ok || w.version > ci.version {
			db.committed[rid] = committedImage{img: w.img, version: w.version}
		}
	}
	st.status = TxnCommitted
	db.stats.Commits++
	o := db.obs
	beginSim := st.beginSim
	db.mu.Unlock()
	if o != nil {
		now := db.M.Clock(nd)
		o.Instant(obs.KindTxnCommit, int32(nd), now, int64(t), 0)
		o.ObserveCommit(now - beginSim)
	}
	if wf := db.wfp.Load(); wf != nil {
		// Close the Commit bracket (a no-op for global branches, which never
		// opened one) and complete the waterfall.
		now := db.M.Clock(nd)
		wf.OpEnd(int64(t), int32(nd), now)
		wf.End(int64(t), now, waterfall.OutcomeCommitted)
	}
	return nil
}

// AbortGlobal rolls back every live branch of g. Branches on crashed nodes
// are left for restart recovery.
func (db *DB) AbortGlobal(g GlobalID) error {
	for _, t := range db.Branches(g) {
		st, err := db.txn(t)
		if err != nil {
			return err
		}
		if st.status != TxnActive || st.crashed {
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
// are released. Returns the branches aborted.
func (db *DB) abortOrphanedBranches(rep *RecoveryReport) ([]wal.TxnID, error) {
	db.mu.Lock()
	// Globals with a crashed branch.
	doomed := make(map[uint64]bool)
	for _, st := range db.txns {
		if st.global != 0 && st.crashed {
			doomed[st.global] = true
		}
	}
	var victims []wal.TxnID
	for _, st := range db.txns {
		if st.global != 0 && doomed[st.global] && st.status == TxnActive && !st.crashed {
			victims = append(victims, st.id)
		}
	}
	db.mu.Unlock()
	sortTxns(victims)
	for _, t := range victims {
		if err := db.Abort(t.Node(), t); err != nil {
			return victims, fmt.Errorf("recovery: aborting orphaned branch %v: %w", t, err)
		}
		// Release the branch's locks (its transaction layer will never
		// get the chance).
		db.mu.Lock()
		locks := append([]heldLock(nil), db.txns[t].locks...)
		db.mu.Unlock()
		for _, hl := range locks {
			_ = db.Locks.Release(t.Node(), t, hl.name)
		}
		db.mu.Lock()
		db.stats.TxnsAbortedByRecovery++
		db.mu.Unlock()
		rep.Aborted = append(rep.Aborted, t)
	}
	return victims, nil
}
