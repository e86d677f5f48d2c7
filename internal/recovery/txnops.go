package recovery

import (
	"errors"
	"fmt"
	"slices"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// TxnEvent records a transaction event of kind k for t on node nd at nd's
// clock, with B = b: the lifecycle instants and the operation brackets
// (KindOpStart with the obs.Cause its residue is charged to, KindOpEnd).
// With no observer attached it reads no clock.
func (db *DB) TxnEvent(k obs.Kind, nd machine.NodeID, t wal.TxnID, b int64) {
	if o := db.hk.Load().Observer; o != nil {
		o.Instant(k, int32(nd), db.M.Clock(nd), int64(t), b)
	}
}

// Wait records t's attributed wait of cause c on node nd, a KindTxnWait span
// from start to nd's clock now about detail; nothing if the clock did not
// move or no observer is attached.
func (db *DB) Wait(nd machine.NodeID, t wal.TxnID, c obs.Cause, start, detail int64) {
	o := db.hk.Load().Observer
	if o == nil {
		return
	}
	if end := db.M.Clock(nd); end > start {
		o.Record(obs.Event{Kind: obs.KindTxnWait, Node: int32(nd), Sim: start, Dur: end - start,
			A: int64(t), B: int64(c), C: detail})
	}
}

// Commit commits transaction t: its undo tags are cleared (the record is no
// longer active, so its node ID becomes null), a commit record is appended
// and the node's log forced through it (durability), and the transaction is
// marked committed. Only then — strict 2PL — are the transaction's locks
// released (ReleaseLocks), so a Commit that returns nil leaves nothing of t
// in the lock table.
func (db *DB) Commit(nd machine.NodeID, t wal.TxnID) error {
	nc, st, err := db.txn(t)
	if err != nil {
		return err
	}
	if s := st.stat(); s != TxnActive {
		return fmt.Errorf("recovery: commit of %v transaction %v", s, t)
	}
	if t.Node() != nd {
		return fmt.Errorf("recovery: %v cannot commit on node %d", t, nd)
	}
	// Commit is an instrumented operation: the force below lands as a
	// log-force wait and the remainder (deferred flush, tag clears inside
	// finalizeCommit) as compute. The commit instant closes the bracket;
	// the deferred close is for every return before it.
	db.TxnEvent(obs.KindOpStart, nd, t, int64(obs.CauseCompute))
	defer db.TxnEvent(obs.KindOpEnd, nd, t, 0)
	db.flushDeferred(nc, st)
	lsn := db.Logs[nd].Append(wal.Record{Type: wal.TypeCommit, Txn: t})
	if err := db.forceThrough(nd, t, lsn, &nc.commitForces); err != nil {
		return fmt.Errorf("recovery: commit of %v: %w", t, err)
	}
	// The commit is acknowledged only if its record really reached stable
	// store — the node may have crashed out from under this goroutine, in
	// which case restart recovery is the sole arbiter of the outcome.
	if lsn == 0 || db.Logs[nd].ForcedLSN() < lsn {
		return fmt.Errorf("recovery: commit of %v interrupted by node failure: %w", t, machine.ErrNodeDown)
	}
	return db.finalizeCommit(nc, st)
}

// flushDeferred appends any commit-deferred update records (AblatedNoLBM
// only) to the node's log; the transaction keeps them until it commits.
func (db *DB) flushDeferred(nc *nodeCtl, st *txnState) {
	if !db.Cfg.Protocol.DeferredLogging() {
		return
	}
	nd := st.id.Node()
	nc.mu.Lock()
	recs := st.deferred
	nc.mu.Unlock()
	for _, rec := range recs {
		lsn := db.Logs[nd].Append(rec)
		db.BM.NoteUpdate(rec.Page, nd, lsn)
	}
}

// clearTag nulls rid's undo tag inside a line lock (the record is no longer
// active once its transaction commits). If the record's line is not cached
// anywhere — destroyed by a crash racing the commit — there is no tag to
// clear: tags never reach disk, and restart recovery's tag reconciliation
// covers any residue. It reports whether a tag was cleared.
func (db *DB) clearTag(nd machine.NodeID, rid heap.RID) (bool, error) {
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		return false, err
	}
	if !db.M.Resident(line) {
		return false, nil
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, nd, line); err != nil {
		if errors.Is(err, machine.ErrLineLost) {
			return false, nil // lost between the check and the lock: same story
		}
		return false, err
	}
	defer db.mustLeave(&sec, nd)
	var buf heap.SlotBuf
	sd, err := db.Store.ReadSlotIn(&sec, rid, &buf)
	if err != nil || sd.Tag == machine.NoNode {
		return false, err
	}
	if err := db.Store.WriteTagIn(&sec, rid, machine.NoNode); err != nil {
		return false, err
	}
	return true, nil
}

// Abort rolls back transaction t using the before images in its node's
// volatile log, writing a compensation record for every undo, and appends an
// abort record. Under strict 2PL this simply reinstalls every touched
// record's prior value. Structural (NTA) updates are not undone — they were
// committed early precisely so other transactions could use their results.
func (db *DB) Abort(nd machine.NodeID, t wal.TxnID) error {
	nc, st, err := db.txn(t)
	if err != nil {
		return err
	}
	if s := st.stat(); s != TxnActive {
		return fmt.Errorf("recovery: abort of %v transaction %v", s, t)
	}
	if t.Node() != nd {
		return fmt.Errorf("recovery: %v cannot abort on node %d", t, nd)
	}
	if db.Cfg.Protocol.DeferredLogging() && db.WriteCount(t) > 0 {
		return fmt.Errorf("recovery: %v cannot abort under %v (no undo information was logged)", t, db.Cfg.Protocol)
	}
	// The rollback is a bracket whose residue lands under "undo": the walk's
	// slot reads, image installs, and directory work are undo time, while
	// line waits and page fetches inside it keep their own causes. The abort
	// instant closes it; the deferred close is for every return before it (a
	// lost line stalls the walk, and the caller retries the whole Abort).
	db.TxnEvent(obs.KindOpStart, nd, t, int64(obs.CauseUndo))
	defer db.TxnEvent(obs.KindOpEnd, nd, t, 0)
	// Walk the undo chain (t's undoable updates, each naming the one before
	// it) into the undo set; install in reverse log order, first touch per slot.
	undo := make(undoSet)
	var order []heap.RID
	nc.mu.Lock()
	lsn := st.lastUndoable()
	nc.mu.Unlock()
	for lsn != 0 {
		rec, ok := db.Logs[nd].Get(lsn)
		if !ok || rec.Txn != t || rec.Type != wal.TypeUpdate {
			return fmt.Errorf("recovery: broken undo chain for %v at LSN %d", t, lsn)
		}
		if rid, fresh := undo.add(&rec); fresh {
			order = append(order, rid)
		}
		lsn = rec.PrevLSN
	}
	for _, rid := range order {
		if _, err := db.undoSlot(nd, t, rid, undo[rid], false); err != nil {
			return err
		}
	}
	db.Logs[nd].Append(wal.Record{Type: wal.TypeAbort, Txn: t})
	nc.mu.Lock()
	st.status.Store(int32(TxnAborted))
	nc.stats.Aborts++
	nc.mu.Unlock()
	db.TxnEvent(obs.KindTxnAbort, nd, t, 0)
	return db.ReleaseLocks(t)
}

// slotUndo is one transaction's rollback of one slot: the before image of
// its earliest update there (the pre-transaction value — the last committed
// one, by strict 2PL) and every version it wrote.
type slotUndo struct {
	first    uint64 // version of the earliest update seen
	earliest []byte // that update's before image
	versions map[uint64]bool
}

// undoSet is one transaction's rollback. Abort feeds it newest record first
// (the undo chain), undoCrashed oldest first (a stable-log scan); versions
// only grow, so the lowest marks the earliest update either way. Each feeder
// installs in its own order.
type undoSet map[heap.RID]*slotUndo

// add folds update record rec in and reports whether it is its slot's first.
func (u undoSet) add(rec *wal.Record) (rid heap.RID, fresh bool) {
	rid = heap.RID{Page: rec.Page, Slot: rec.Slot}
	su := u[rid]
	if fresh = su == nil; fresh {
		su = &slotUndo{first: rec.Version, versions: make(map[uint64]bool)}
		u[rid] = su
	}
	if rec.Version <= su.first {
		su.first, su.earliest = rec.Version, rec.Before
	}
	su.versions[rec.Version] = true
	return rid, fresh
}

// undoSlot reverts rid to t's pre-transaction image if the slot still holds
// one of t's versions, and reports whether it did. Under strict 2PL it always
// does while t runs (the X lock kept everyone else out); after a crash the
// update may have died with its line, or recovery may have settled the slot
// to a committed value, which the stale before image must not clobber. clone
// gives the compensation record its own copy of an image that aliases a
// recovery attempt's log view.
func (db *DB) undoSlot(nd machine.NodeID, t wal.TxnID, rid heap.RID, su *slotUndo, clone bool) (bool, error) {
	var buf heap.SlotBuf
	cur, err := db.readSlot(nd, rid, &buf)
	if err != nil || !su.versions[cur.Version] {
		return false, err
	}
	img := su.earliest
	if clone {
		img = slices.Clone(img)
	}
	return true, db.installImage(nd, rid, img, t)
}

// installImage writes a logged slot image (flags + data) into rid with a
// fresh version, a null undo tag, and a compensation log record. It is the
// shared undo mechanism of transaction abort and restart recovery.
func (db *DB) installImage(nd machine.NodeID, rid heap.RID, img []byte, t wal.TxnID) error {
	var hs, ls machine.Section
	if err := db.enterSlot(nd, rid, &hs, &ls); err != nil {
		return err
	}
	defer db.leaveSlot(nd, &hs, &ls)

	version := db.NextVersion()
	flags, data := splitImage(img)
	lsn := db.Logs[nd].Append(wal.Record{
		Type: wal.TypeCLR, Txn: t, Page: rid.Page, Slot: rid.Slot,
		Version: version, After: img,
	})
	db.BM.NoteUpdate(rid.Page, nd, lsn)
	var buf heap.SlotBuf
	if err := db.Store.WriteSlotIn(&ls, rid, heap.SlotData{
		Tag: machine.NoNode, Flags: flags, Version: version, Data: data,
	}, &buf); err != nil {
		return err
	}
	return db.stampPage(&hs, &ls, rid, version)
}

// BeginNTA opens a nested top-level action for t (a structural change such
// as a B-tree split) and returns its id. Updates made with StructuralUpdate
// under this id survive t's abort.
func (db *DB) BeginNTA(nd machine.NodeID, t wal.TxnID) (uint64, error) {
	nc, st, err := db.txn(t)
	if err != nil {
		return 0, err
	}
	nc.mu.Lock()
	if st.nta != 0 {
		nc.mu.Unlock()
		return 0, fmt.Errorf("recovery: %v already has NTA %d open", t, st.nta)
	}
	id := db.NextVersion()
	st.nta = id
	nc.mu.Unlock()
	db.Logs[nd].Append(wal.Record{Type: wal.TypeNTABegin, Txn: t, NTA: id})
	return id, nil
}

// EndNTA commits the nested top-level action. Under IFA protocols the
// structural change is committed early: the node's log is forced through the
// NTA-end record before any other transaction is allowed to use the changed
// structure, so no cross-node abort dependency can form on it (section 4.2).
func (db *DB) EndNTA(nd machine.NodeID, t wal.TxnID, nta uint64) error {
	nc, st, err := db.txn(t)
	if err != nil {
		return err
	}
	nc.mu.Lock()
	if st.nta != nta {
		nc.mu.Unlock()
		return fmt.Errorf("recovery: %v has NTA %d open, not %d", t, st.nta, nta)
	}
	st.nta = 0
	nc.mu.Unlock()
	lsn := db.Logs[nd].Append(wal.Record{Type: wal.TypeNTAEnd, Txn: t, NTA: nta})
	if db.Cfg.Protocol.EarlyCommitsStructural() {
		if err := db.forceThrough(nd, t, lsn, &nc.ntaForces); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint flushes every dirty page (with WAL enforcement), writes a
// forced checkpoint record to every live node's log, and reclaims log
// space: everything below both the checkpoint record and the point the
// node's log had reached when its oldest still-active transaction began is
// discarded — committed effects below the horizon are in the stable database
// (the flush above), and active transactions keep their full undo chains.
// Restart redo scans begin at each node's last checkpoint.
func (db *DB) Checkpoint(nd machine.NodeID) error {
	if err := db.BM.FlushAll(nd); err != nil {
		return err
	}
	for _, n := range db.M.AliveNodes() {
		lsn := db.Logs[n].Append(wal.Record{Type: wal.TypeCheckpoint})
		if _, forced := db.Logs[n].Force(lsn); forced {
			cost := db.LogForceCost()
			db.M.AdvanceClock(n, cost)
			db.hk.Load().Observer.ObserveLogForce(cost)
		}
		nc := &db.nodes[n]
		nc.mu.Lock()
		low := nc.liveFloor(lsn)
		nc.mu.Unlock()
		db.Logs[n].DiscardThrough(low - 1)
	}
	return nil
}
