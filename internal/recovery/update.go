package recovery

import (
	"fmt"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// The update protocol (sections 5 and 6). Every record update runs inside
// line-lock critical sections on the page header line (which carries the
// Page-LSN) and the record's line:
//
//	record lock (caller, strict 2PL)
//	  getline(header); getline(record line)
//	    read before image
//	    append undo/redo log record            <- ordered update logging
//	    apply update in place (+ undo tag)
//	    update Page-LSN
//	    [Stable LBM eager: force log]          <- LBM before any migration
//	    [Stable LBM triggered: set active bit]
//	  releaseline(record line); releaseline(header)
//
// Holding the line lock from the update through the log write is exactly
// what enforces Volatile LBM: the line cannot migrate, downgrade, or be
// invalidated in between, so by the time any other node can see the
// uncommitted data, the volatile log record exists.
//
// The two critical sections are two machine.Sections. A section keeps its
// line's stripe between steps, and a goroutine may hold one stripe at a time,
// so the two never step back to back: whichever stepped last yields before
// the other steps, before a crash is injected, and before a log force. The
// log append, the (page, LSN) note and the deferred-record append run under
// the record line's stripe (lock order: stripe, node mutex, log mutex).
// A forward update (applyChange) and an undo install (installImage) are the
// same bracket (enterSlot, leaveSlot) and page-stamp tail (stampPage).

// SlotImage packs a slot's logical content (flags byte + record payload)
// into the form stored in log records' Before/After images. Undo tags and
// versions are deliberately excluded: tags are reconstructed by recovery and
// versions are assigned per update.
func SlotImage(layout heap.Layout, flags byte, data []byte) []byte {
	img := make([]byte, 1+layout.RecordSize())
	img[0] = flags
	copy(img[1:], data)
	return img
}

// splitImage undoes SlotImage.
func splitImage(img []byte) (flags byte, data []byte) {
	return img[0], img[1:]
}

// readSlot reads rid's slot into buf on behalf of node nd, fetching the page
// if needed: for a caller that only inspects the slot, or copies what it
// keeps. The result's Data aliases buf.
func (db *DB) readSlot(nd machine.NodeID, rid heap.RID, buf *heap.SlotBuf) (heap.SlotData, error) {
	if err := db.BM.Fetch(nd, rid.Page); err != nil {
		return heap.SlotData{}, err
	}
	return db.Store.ReadSlot(nd, rid, buf)
}

// Read returns rid's slot on behalf of node nd, fetching the page if
// needed. Callers are responsible for holding a shared record lock (unless
// dirty reads are configured). The result's Data is the caller's own: a copy
// carved from nd's arena, which the engine never writes again.
func (db *DB) Read(nd machine.NodeID, rid heap.RID) (heap.SlotData, error) {
	var buf heap.SlotBuf
	sd, err := db.readSlot(nd, rid, &buf)
	if err != nil {
		return heap.SlotData{}, err
	}
	data := db.nodes[nd].carve(int64(len(sd.Data)))
	copy(data, sd.Data)
	// Not sd with Data replaced: returning sd would move buf to the heap.
	return heap.SlotData{Tag: sd.Tag, Flags: sd.Flags, Version: sd.Version, Data: data}, nil
}

// Update applies an in-place record update for transaction t. The caller
// holds an exclusive record lock. newData is zero-padded to the record size.
func (db *DB) Update(nd machine.NodeID, t wal.TxnID, rid heap.RID, newData []byte) error {
	return db.applyChange(nd, t, rid, heap.FlagOccupied, newData, 0, opUpdate)
}

// Insert stores a record in a (previously unoccupied) slot for t.
func (db *DB) Insert(nd machine.NodeID, t wal.TxnID, rid heap.RID, data []byte) error {
	var buf heap.SlotBuf
	cur, err := db.readSlot(nd, rid, &buf)
	if err != nil {
		return err
	}
	if cur.Occupied() && !cur.Deleted() {
		return fmt.Errorf("recovery: insert into occupied slot %v", rid)
	}
	return db.applyChange(nd, t, rid, heap.FlagOccupied, data, 0, opInsert)
}

// Delete logically deletes rid for t by setting the deleted mark while
// keeping the record bytes in place (section 4.2.1): the space is not
// reusable until t commits, and the undo of an uncommitted delete is a mere
// unmark (the migrating cache line carries the original record with it).
func (db *DB) Delete(nd machine.NodeID, t wal.TxnID, rid heap.RID) error {
	var buf heap.SlotBuf
	cur, err := db.readSlot(nd, rid, &buf)
	if err != nil {
		return err
	}
	if !cur.Occupied() || cur.Deleted() {
		return fmt.Errorf("recovery: delete of absent record %v", rid)
	}
	return db.applyChange(nd, t, rid, heap.FlagOccupied|heap.FlagDeleted, cur.Data, 0, opDelete)
}

// StructuralUpdate applies an update inside a nested top-level action (NTA):
// it is never undone by the enclosing transaction's abort and carries no
// undo tag. The B-tree uses it for page splits and space allocation.
func (db *DB) StructuralUpdate(nd machine.NodeID, t wal.TxnID, rid heap.RID, flags byte, data []byte, nta uint64) error {
	if nta == 0 {
		return fmt.Errorf("recovery: structural update outside an NTA")
	}
	return db.applyChange(nd, t, rid, flags, data, nta, opStructural)
}

// changeOp names the record operation an applyChange call performs, for the
// Stats counter it bumps.
type changeOp int

const (
	opUpdate changeOp = iota
	opInsert
	opDelete
	opStructural
)

// applyChange is the update protocol proper. Its bookkeeping — the write
// record, the counters — is one section of the node's mutex, taken after the
// last machine call; one before the first reads where the transaction's undo
// chain ends.
func (db *DB) applyChange(nd machine.NodeID, t wal.TxnID, rid heap.RID, newFlags byte, newData []byte, nta uint64, op changeOp) error {
	nc, st, err := db.txn(t)
	if err != nil {
		return err
	}
	if s := st.stat(); s != TxnActive {
		return fmt.Errorf("recovery: %v is %v, not active", t, s)
	}
	if t.Node() != nd {
		return fmt.Errorf("recovery: %v runs on node %d, not %d", t, t.Node(), nd)
	}
	nc.mu.Lock()
	prev := st.lastUndoable()
	nc.mu.Unlock()
	// The update is an instrumented operation: its line waits, fetch waits,
	// and eager-LBM forces are attributed individually below, and whatever
	// sim time remains unexplained lands in the compute residue. Reentrant
	// under the transaction layer's own bracket.
	db.TxnEvent(obs.KindOpStart, nd, t, int64(obs.CauseCompute))
	defer db.TxnEvent(obs.KindOpEnd, nd, t, 0)
	var hs, ls machine.Section
	if err := db.enterSlot(nd, rid, &hs, &ls); err != nil {
		return err
	}
	defer db.leaveSlot(nd, &hs, &ls)

	var buf heap.SlotBuf
	cur, err := db.Store.ReadSlotIn(&ls, rid, &buf)
	if err != nil {
		return err
	}
	before := nc.slotImage(db.Store.Layout, cur.Flags, cur.Data)
	after := nc.slotImage(db.Store.Layout, newFlags, newData)
	version := db.NextVersion()

	// Log before the line can migrate (LBM): the line lock pins it. The
	// AblatedNoLBM control defers the append to commit time instead,
	// deliberately breaking the guarantee.
	rec := wal.Record{
		Type: wal.TypeUpdate, Txn: t, PrevLSN: prev, Page: rid.Page, Slot: rid.Slot,
		Version: version, Before: before, After: after, NTA: nta,
	}
	var lsn wal.LSN
	if db.Cfg.Protocol.DeferredLogging() && nta == 0 {
		nc.mu.Lock()
		st.deferred = append(st.deferred, rec)
		nc.mu.Unlock()
	} else {
		lsn = db.Logs[nd].Append(rec)
		db.BM.NoteUpdate(rid.Page, nd, lsn)
		// Injected fault: the updater dies after its log append but before
		// its in-place slot write — the logged update never happened in
		// memory, and recovery's version check must skip it.
		if inj := db.injector(); inj != nil && inj.CrashAtUpdate(nd, db.aliveCount()) {
			ls.Yield()
			db.M.Crash(nd)
			return fmt.Errorf("recovery: node %d crashed between log append and slot write: %w",
				nd, machine.ErrNodeDown)
		}
	}

	tag := machine.NoNode
	if db.Cfg.Protocol.UndoTagging() && nta == 0 {
		tag = nd
	}
	flags, data := splitImage(after)
	if err := db.Store.WriteSlotIn(&ls, rid, heap.SlotData{Tag: tag, Flags: flags, Version: version, Data: data}, &buf); err != nil {
		return err
	}
	// The slot holds the new value from here on, so the write is the
	// transaction's whatever stops the steps that remain — a torn eager
	// force takes the node down — or the checker could not name the writer
	// of a logged, in-memory update and would report its undo as a lost
	// committed value.
	err = db.lbmAfterWrite(nc, t, rid, &hs, &ls, version, lsn)
	nc.mu.Lock()
	if nta == 0 {
		st.writes = append(st.writes, writeRec{rid: rid, lsn: lsn})
	}
	if err != nil {
		nc.mu.Unlock()
		return err
	}
	switch op {
	case opUpdate:
		nc.stats.Updates++
	case opInsert:
		nc.stats.Inserts++
	case opDelete:
		nc.stats.Deletes++
	}
	if tag != machine.NoNode {
		nc.stats.TagWrites++
		nc.stats.UndoTagBytes++
	}
	nc.mu.Unlock()
	if m := db.hk.Load().Model(); m != nil && nta == 0 {
		// Register the write with the residency model while the line lock
		// still pins the line: it cannot migrate, downgrade, or be
		// invalidated before the model — and through it the explainer and
		// the auditor — knows about the uncommitted data.
		slot := int64(rid.Page)<<16 | int64(rid.Slot)
		line, _, _ := db.Store.LineOf(rid) // valid: ls is a section on it
		m.NoteWrite(int64(t), int32(nd), int32(line), slot, int64(lsn), db.M.Clock(nd))
	}
	return nil
}

// enterSlot opens the critical section a slot write by node nd runs in: the
// page is fetched, then hs enters its header line and ls the record's line,
// in that fixed order (one page, so no cross-page nesting). It returns with
// ls holding its stripe and hs yielded; on error neither section is open.
func (db *DB) enterSlot(nd machine.NodeID, rid heap.RID, hs, ls *machine.Section) error {
	if err := db.BM.Fetch(nd, rid.Page); err != nil {
		return err
	}
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		return err
	}
	if err := db.M.Enter(hs, nd, db.Store.HeaderLine(rid.Page)); err != nil {
		return err
	}
	hs.Yield()
	if err := db.M.Enter(ls, nd, line); err != nil {
		db.mustLeave(hs, nd)
		return err
	}
	return nil
}

// leaveSlot closes what enterSlot opened: the record's line first, then the
// header.
func (db *DB) leaveSlot(nd machine.NodeID, hs, ls *machine.Section) {
	hs.Yield()
	db.mustLeave(ls, nd)
	db.mustLeave(hs, nd)
}

// stampPage is the tail of a slot write inside enterSlot's sections: page
// version onto the header line, then the dirty mark. It leaves both yielded.
func (db *DB) stampPage(hs, ls *machine.Section, rid heap.RID, version uint64) error {
	ls.Yield()
	if err := db.Store.SetPageVersionIn(hs, rid.Page, version); err != nil {
		return err
	}
	hs.Yield()
	db.BM.MarkDirty(rid.Page)
	return nil
}

// lbmAfterWrite is what applyChange owes a slot it has just written, still
// inside the critical sections hs (the page's header line) and ls (the
// record's line): the page stamp and the protocol's logging-before-migration
// step for the update logged at lsn.
func (db *DB) lbmAfterWrite(nc *nodeCtl, t wal.TxnID, rid heap.RID, hs, ls *machine.Section, version uint64, lsn wal.LSN) error {
	if err := db.stampPage(hs, ls, rid, version); err != nil {
		return err
	}

	switch db.Cfg.Protocol {
	case StableEager:
		// Stable LBM, enforced within the critical section: both undo and
		// redo information are stable before the line can move. The force
		// can be torn by an injected crash; the update dies with the node.
		return db.forceThrough(t.Node(), t, lsn, &nc.lbmForces)
	case StableTriggered:
		// Stable LBM via the section 5.2 extension: mark the line active
		// and remember how far this node's log must be forced if the line
		// is about to leave.
		for {
			cur := nc.pendingLSN.Load()
			if uint64(lsn) <= cur || nc.pendingLSN.CompareAndSwap(cur, uint64(lsn)) {
				break
			}
		}
		ls.SetActive(true)
	}
	return nil
}

// lbmTrigger is the pre-transition callback installed for StableTriggered.
// It runs, with the line's machine stripe held, just before an active line
// migrates, downgrades, or is invalidated: the node losing the line forces
// its log through its last update, making the undo and redo information
// stable before the data leaves its failure domain. The machine clears the
// line's active bit afterwards. Holding a stripe, it takes no DB-level mutex:
// a Crash waiting for that stripe may be what the mutex's holder waits for.
func (db *DB) lbmTrigger(ev machine.Event) (int64, error) {
	nc := db.ctl(ev.From)
	if nc == nil {
		return 0, nil
	}
	upto := wal.LSN(nc.pendingLSN.Load())
	if upto == 0 {
		return 0, nil
	}
	if _, forced := db.Logs[ev.From].Force(upto); forced {
		nc.lbmForces.Add(1)
		cost := db.LogForceCost()
		// Safe with the stripe held: the observer takes only its own locks
		// and never calls back into the machine.
		if o := db.hk.Load().Observer; o != nil {
			o.ObserveLogForce(cost)
			// The machine charges the trigger's cost to the acquiring node
			// (ev.To), so the force is a wait of the transaction running
			// there (A = 0) — the price of pulling an active line out of
			// ev.From's failure domain. The clock is machine-lock safe.
			o.Record(obs.Event{Kind: obs.KindTxnWait, Node: int32(ev.To), Sim: db.M.Clock(ev.To), Dur: cost,
				B: int64(obs.CauseLogForce), C: int64(upto)})
		}
		return cost, nil
	}
	return 0, nil
}

// mustLeave ends node nd's line section sec, panicking on protocol
// violations (they are bugs, not runtime conditions). The one tolerated
// failure: the node crashed while this goroutine was inside the critical
// section — the machine already broke its line locks, and a real crashed CPU
// would simply have stopped executing here.
func (db *DB) mustLeave(sec *machine.Section, nd machine.NodeID) {
	if err := sec.Leave(); err != nil && db.M.Alive(nd) {
		panic(fmt.Sprintf("recovery: leaving a line section on node %d: %v", nd, err))
	}
}
