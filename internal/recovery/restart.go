package recovery

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// Restart recovery (section 4.1.2 for database objects, 4.2 for support
// structures). The caller injects failures with Crash and then runs Recover
// on the survivors. Recovery never reads a crashed node's volatile state:
// for crashed nodes only the stable log prefix and whatever cache lines
// migrated to survivors are available.

// RecoveryReport summarizes one restart recovery run.
type RecoveryReport struct {
	Protocol Protocol
	Crashed  []machine.NodeID
	// RedoApplied / RedoSkipped count redo decisions; UndoApplied counts
	// undo installations (stable-log undos plus tag-scan undos).
	RedoApplied, RedoSkipped, UndoApplied int
	// TagScanLines is the number of cache lines examined by the Selective
	// Redo undo scan.
	TagScanLines int
	// Aborted lists transactions aborted by recovery. Under IFA these are
	// exactly the crashed nodes' active transactions; under the baseline,
	// every active transaction in the system.
	Aborted []wal.TxnID
	// LCBsReinstalled, LockEntriesReleased, LocksReplayed count lock-space
	// recovery work; LCBChainsDropped counts chained LCBs discarded whole
	// (broken chains plus orphaned fragments) for rebuild from the logs.
	LCBsReinstalled, LockEntriesReleased, LocksReplayed, LCBChainsDropped int
	// Attempts counts recovery entries: 1 for an undisturbed run, more when
	// a crash during recovery forced a restartable re-entry.
	// CoordinatorFailovers counts the subset of re-entries that elected a
	// new coordinator because the previous one died mid-recovery.
	Attempts, CoordinatorFailovers int
	// SimTime is the simulated duration of recovery in nanoseconds
	// (makespan increase across nodes).
	SimTime int64
	// Phases breaks SimTime down into the recovery phases, in execution
	// order (plus a leading freeze span covering crash-to-recovery time when
	// known). Durations are simulated nanoseconds.
	Phases []obs.PhaseSpan
}

// Crash fails the given nodes: their caches are destroyed (machine), their
// volatile log tails are lost (wal), and their entries leave the shared
// WAL-enforcement table (buffer). Active transactions on those nodes become
// crash victims awaiting recovery. The DB-layer destruction happens inside
// the machine's crash-notify callback (noteCrash), so injected crashes fired
// mid-coherency-transition get exactly the same treatment.
func (db *DB) Crash(nodes ...machine.NodeID) machine.CrashReport {
	return db.M.Crash(nodes...)
}

// Recover runs restart recovery after Crash(crashed...). It must be called
// from a surviving configuration (at least one live node), and one call at a
// time.
//
// Recovery is itself crash-tolerant: if a node — including the recovery
// coordinator — dies while recovery runs, Recover elects a new coordinator
// from the survivors, folds the fresh victims into the crashed set, and
// re-enters from the top. Every recovery pass is idempotent (version-checked
// redo, tombstone LCB reinstalls, duplicate-free lock replay, status-guarded
// settling), so re-entry repeats no effect; the attempt budget is bounded
// because each re-entry consumes at least one real node crash and the
// machine runs out of nodes to lose.
func (db *DB) Recover(crashed []machine.NodeID) (*RecoveryReport, error) {
	alive := db.M.AliveNodes()
	if len(alive) == 0 {
		return nil, fmt.Errorf("recovery: no surviving nodes")
	}
	defer db.frozen.Store(false)
	// Restart recovery is the one actor allowed through the freeze-window
	// install gate (see New): open it for the duration of the call.
	db.recovering.Store(true)
	defer db.recovering.Store(false)
	rep := &RecoveryReport{Protocol: db.Cfg.Protocol, Crashed: mergeNodes(crashed, nil)}
	// The run opens with a progress event (the progress observer resets, the
	// debt tracker snapshots the replay debt its estimate is judged against)
	// and closes on every exit with the recovery span (end), which reports
	// success only for the normal returns.
	db.progress(obs.PhaseNone, 0, len(rep.Crashed), 0)
	hk := db.hk.Load()
	o := hk.Observer
	startClock := db.M.MaxClock()
	end := db.recoverySpan(rep, startClock)
	defer end(false) // a no-op after end(true)

	// A crash left a flight-recorder dump pending (noteCrash runs under the
	// machine lock and may not touch files); write the post-mortem now,
	// before recovery mutates the crash-instant state. Best effort: a dump
	// I/O failure must not block recovery.
	if db.flightPending.Swap(false) {
		_, _ = db.DumpFlight("crash")
	}

	// The freeze span covers crash-to-recovery-start: transactions that hit
	// the failed domain stall while the system decides to recover.
	if cs := db.crashSim.Swap(0); cs > 0 && cs <= startClock {
		rep.Phases = append(rep.Phases, obs.PhaseSpan{Phase: obs.PhaseFreeze, Start: cs, Dur: startClock - cs})
		o.Span(obs.KindPhase, obs.PhaseFreeze, obs.SystemNode, cs, startClock-cs)
	}

	// Workload-time faults (migration/update crashes, torn forces) stay
	// quiet while recovery runs; in-recovery crashes and transient I/O
	// errors remain live — they are precisely what this loop survives.
	if inj := db.injector(); inj != nil {
		inj.BeginRecovery()
		defer inj.EndRecovery()
	}

	if db.Cfg.Protocol == BaselineFA {
		rep.Attempts = 1
		db.progress(obs.PhaseNone, 1, 0, 0)
		phase := db.phaseTracker(rep, o)
		if err := db.baselineReboot(rep, phase); err != nil {
			return nil, err
		}
		db.crashSim.Store(0) // baselineReboot crashes the rest internally
		if db.flightPending.Swap(false) {
			_, _ = db.DumpFlight("crash")
		}
		end(true)
		db.noteRecovered(hk, rep)
		return rep, nil
	}

	maxAttempts := db.M.Nodes() + 3
	lastCoord := machine.NoNode
	for {
		alive = db.M.AliveNodes()
		if len(alive) == 0 {
			return nil, fmt.Errorf("recovery: no surviving nodes")
		}
		if lastCoord != machine.NoNode && alive[0] != lastCoord {
			rep.CoordinatorFailovers++
		}
		lastCoord = alive[0]
		rep.Attempts++
		db.progress(obs.PhaseNone, rep.Attempts, 0, 0)
		err := db.recoverOnce(alive, rep)
		if err == nil {
			break
		}
		if rep.Attempts >= maxAttempts || !recoverableErr(err) {
			return nil, err
		}
		// A node died under recovery's feet; fold the new victims into the
		// reported crash set and re-enter with a fresh coordinator.
		rep.Crashed = mergeNodes(rep.Crashed, db.downNodes())
		if db.flightPending.Swap(false) {
			_, _ = db.DumpFlight("crash-in-recovery")
		}
	}
	sortTxns(rep.Aborted)
	db.mu.Lock()
	db.recStats.RedoApplied += int64(rep.RedoApplied)
	db.recStats.RedoSkipped += int64(rep.RedoSkipped)
	db.recStats.UndoApplied += int64(rep.UndoApplied)
	db.recStats.LCBsRebuilt += int64(rep.LCBsReinstalled)
	db.recStats.LockEntriesReleased += int64(rep.LockEntriesReleased)
	db.mu.Unlock()
	db.crashSim.Store(0) // mid-recovery crashes were handled in-line
	end(true)
	db.noteRecovered(hk, rep)
	return rep, nil
}

// recoverySpan returns Recover's closer, which records the KindRecovery span
// from start (so it covers every early return too): the run's end for the
// progress observer and the debt tracker, with what it replayed. A
// successful run also sets rep.SimTime. Only the first call counts.
func (db *DB) recoverySpan(rep *RecoveryReport, start int64) func(ok bool) {
	closed := false
	return func(ok bool) {
		if closed {
			return
		}
		closed = true
		var c int64
		if ok {
			rep.SimTime = db.M.MaxClock() - start
			c = 1
		}
		db.hk.Load().Observer.Record(obs.Event{Kind: obs.KindRecovery, Node: obs.SystemNode,
			Sim: start, Dur: rep.SimTime, A: int64(rep.RedoApplied + rep.RedoSkipped + rep.UndoApplied), C: c})
	}
}

// progressEvery is how many records of a phase's work a progressBatch
// gathers before it becomes one KindProgress event: the apply phase, which
// walks every redo candidate, reports at most one event per 512 candidates
// (plus one at the phase's end).
const progressEvery = 512

// progressBatch gathers one phase's per-record progress (see noteProgress).
type progressBatch struct{ records, bytes int }

// noteProgress adds records and bytes of phase p's work to b, reporting the
// batch once it holds progressEvery records.
func (db *DB) noteProgress(b *progressBatch, p obs.Phase, records, bytes int) {
	b.records += records
	b.bytes += bytes
	if b.records >= progressEvery {
		db.flushProgress(b, p)
	}
}

// flushProgress reports and empties what b gathered of phase p, if anything.
func (db *DB) flushProgress(b *progressBatch, p obs.Phase) {
	if b.records > 0 || b.bytes > 0 {
		db.progress(p, b.records, b.bytes, 0)
		*b = progressBatch{}
	}
}

// progress records a KindProgress event (see obs.KindProgress for a, b, c).
func (db *DB) progress(p obs.Phase, a, b, c int) {
	if o := db.hk.Load().Observer; o != nil {
		o.Record(obs.Event{Kind: obs.KindProgress, Phase: p, Node: obs.SystemNode, Sim: db.M.MaxClock(),
			A: int64(a), B: int64(b), C: int64(c)})
	}
}

// noteRecovered tells the residency model which crash victims recovery
// aborted (the rest settled as stable-committed), closing the crash episode
// for the explainer and the auditor alike.
func (db *DB) noteRecovered(hk *hooks.Set, rep *RecoveryReport) {
	m := hk.Model()
	if m == nil {
		return
	}
	aborted := make([]int64, len(rep.Aborted))
	for i, t := range rep.Aborted {
		aborted[i] = int64(t)
	}
	m.NoteRecovered(aborted, db.M.MaxClock())
}

// recoverOnce is one attempt at the IFA restart-recovery sequence. Counters
// accumulate into rep across attempts (each pass is idempotent, so repeated
// work is skipped, not recounted). At every phase boundary the fault
// injector may crash a node, in which case recoverOnce stops immediately
// with ErrRecoveryInterrupted and Recover re-enters.
func (db *DB) recoverOnce(alive []machine.NodeID, rep *RecoveryReport) error {
	coord := alive[0]
	// Every log is read and summarised once, here, and every phase below
	// works from this view set and the redo candidates its walks emitted. It
	// lives for this attempt only: a node that dies under the attempt ends
	// it, and the next one reads that node's stable prefix afresh — its
	// volatile tail, visible until now, is gone.
	vs, cands, down := db.views(alive, coord)
	o := db.hk.Load().Observer
	phase := db.phaseTracker(rep, o)
	// step closes the phase span, then gives the injector its shot at
	// crashing a node (possibly coord) at exactly this boundary.
	step := func(p obs.Phase) error {
		phase(p)
		return db.faultAtPhase(p)
	}

	// 1. Lock space (section 4.2.2): reinstall destroyed LCB lines as
	// tombstones, release every crashed transaction's entries from
	// surviving LCBs, and rebuild lost lock state by replaying the
	// survivors' logical lock logs for still-active transactions.
	n, err := db.Locks.ReinstallLost(coord)
	if err != nil {
		return err
	}
	rep.LCBsReinstalled += n
	dropped, orphans, err := db.Locks.SweepBrokenChains(coord)
	if err != nil {
		return err
	}
	rep.LCBChainsDropped += dropped + orphans
	if err := step(obs.PhaseDirectoryRepair); err != nil {
		return err
	}
	// Release every down node's transactions — the original victims plus
	// any node lost during an earlier recovery attempt.
	released, err := db.Locks.ReleaseCrashed(coord, down)
	if err != nil {
		return err
	}
	rep.LockEntriesReleased += released
	replayed, err := db.replaySurvivorLocks(alive, vs)
	if err != nil {
		return err
	}
	rep.LocksReplayed += replayed
	if err := step(obs.PhaseLockRebuild); err != nil {
		return err
	}

	// 2. Redo (section 4.1.2), in two phases: settle the candidate list the
	// walks emitted, then apply version-checked redo, whose first pass makes
	// the residency probe (reinstalling lost lines from the stable database)
	// at each line's first candidate.
	if !db.Cfg.Protocol.SelectiveRedo() {
		// Redo All, step 1: every surviving node discards its cached
		// database lines, wiping any migrated uncommitted updates of
		// crashed transactions (and, collaterally, everything else in
		// memory).
		db.flushAllCaches(alive)
	}
	cands = db.collectRedo(vs, cands)
	// The candidate count is the known total for the apply phase: from here
	// /recovery/progress can report an ETA.
	db.progress(obs.PhaseRedoApply, len(cands), 0, 1)
	if err := step(obs.PhaseRedoScan); err != nil {
		return err
	}
	if err := db.applyRedo(cands, rep); err != nil {
		return err
	}
	if err := step(obs.PhaseRedoApply); err != nil {
		return err
	}

	// 3. Undo: down nodes' active transactions. Stolen or stably logged
	// updates are undone from the stable logs; under undo tagging, updates
	// that migrated into surviving caches are found by the sequential
	// cache-line scan and reverted to their last committed values. The
	// pass covers *every* down node, not just this crash's set: a redo
	// from the stable database can resurrect a stolen update of a
	// transaction that died in an earlier failure, and it must be undone
	// again (the version filter makes repetition harmless).
	if err := db.undoCrashed(coord, vs, rep); err != nil {
		return err
	}
	if err := step(obs.PhaseUndo); err != nil {
		return err
	}
	if db.Cfg.Protocol.UndoTagging() {
		if err := db.undoTagScan(alive, down, vs, rep); err != nil {
			return err
		}
		if err := step(obs.PhaseUndoTagScan); err != nil {
			return err
		}
	}

	// Make the repairs durable: the undo passes' compensation records so
	// far live only in the coordinator's volatile log. If that node later
	// crashes before the repaired pages are flushed, a fetch from the
	// stable database would re-instate the very image a compensation
	// record reverted — with no stable record left to redo the repair. One
	// force per surviving log closes the window.
	for _, n := range db.M.AliveNodes() {
		if _, forced := db.Logs[n].ForceAll(); forced {
			cost := db.LogForceCost()
			db.M.AdvanceClock(n, cost)
			o.ObserveLogForce(cost)
		}
	}

	// 4. Settle the victims. A transaction whose node crashed after its
	// commit record reached stable store *is* committed — the crash
	// merely ate the acknowledgement — and the redo pass has already
	// repeated its effects; everyone else is aborted.
	db.eachTxn(func(nc *nodeCtl, st *txnState) {
		if st.stat() != TxnActive || !st.crashed.Load() {
			return
		}
		if v := vs[st.id.Node()]; v.log == nil && v.committed.has(st.id) {
			st.status.Store(int32(TxnCommitted))
			nc.stats.Commits++
			return
		}
		st.status.Store(int32(TxnAborted))
		nc.stats.Aborts++
		nc.stats.TxnsAbortedByRecovery++
		rep.Aborted = append(rep.Aborted, st.id)
	})

	// 5. Parallel transactions (section 9): a crashed branch dooms its
	// whole family; surviving branches are rolled back from their own
	// logs.
	if _, err := db.abortOrphanedBranches(rep); err != nil {
		return err
	}
	return step(obs.PhaseSettle)
}

// mergeNodes unions two node lists into a sorted, duplicate-free list.
func mergeNodes(a, b []machine.NodeID) []machine.NodeID {
	seen := make(map[machine.NodeID]bool, len(a)+len(b))
	out := make([]machine.NodeID, 0, len(a)+len(b))
	for _, n := range a {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range b {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// phaseTracker returns a closure that, on each call, closes the current
// recovery phase: the span from the previous call (or tracker creation) to
// now is appended to the report and mirrored to the observer. Phase time is
// measured on the simulated clock (MaxClock deltas), matching SimTime.
func (db *DB) phaseTracker(rep *RecoveryReport, o *obs.Observer) func(obs.Phase) {
	start := db.M.MaxClock()
	return func(p obs.Phase) {
		now := db.M.MaxClock()
		rep.Phases = append(rep.Phases, obs.PhaseSpan{Phase: p, Start: start, Dur: now - start})
		o.Span(obs.KindPhase, p, obs.SystemNode, start, now-start)
		start = now
	}
}

// downNodes returns every node currently down.
func (db *DB) downNodes() []machine.NodeID {
	var out []machine.NodeID
	for n := machine.NodeID(0); int(n) < db.M.Nodes(); n++ {
		if !db.M.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// flushAllCaches discards every cached heap line on every surviving node
// (Redo All step 1; the lock table is managed separately). Each node's flush
// is one DiscardAll sweep — a stripe-at-a-time batch instead of a lock
// round-trip per line; shared lines are dropped per holder under the line's
// stripe.
func (db *DB) flushAllCaches(alive []machine.NodeID) {
	for _, n := range alive {
		db.M.DiscardAll(n, db.Store.Contains)
	}
}

// logView is what one recovery attempt's walk of one node's log found: a
// summary every phase consults, and the records the later phases read in
// place of the log. A survivor's view is its live log as of the walk — what
// the log gains after it is the view's tail (see tail) — and a down node's is
// its stable prefix, read from the device once; the volatile tail died with
// the node. The lists point at records that are never rewritten, so a phase
// may keep them for the rest of the attempt.
type logView struct {
	node machine.NodeID
	log  *wal.Log // survivors: the live log, read again only for its tail (nil for down nodes)
	// end is the LSN just past the last record the walk read (survivors).
	end wal.LSN
	// cands are the redo candidates the walk emitted, in log order (see
	// redoList): a down node's committed effects after its last checkpoint
	// record, a survivor's update and compensation records after its last
	// one less the updates of transactions dead when the walk read them (see
	// redoes). A survivor's records before that checkpoint are never
	// replayed; old keeps them, in no particular order, for the tag scan's
	// search of committed images (lastCommittedFromStable).
	cands, old []redoCand
	// redo lists a down node's update and compensation records in log order,
	// copied off its device; ckpt is the index of the first one after the
	// last checkpoint record.
	redo []*wal.Record
	ckpt int
	// held lists a survivor's lock records and non-NTA update records of the
	// transactions live when the walk read them, in log order.
	held []*wal.Record
	// committed and aborted are the transactions the visible log records as
	// committed and aborted; ntaDone the structural changes it records as
	// complete.
	committed, aborted txnSet
	ntaDone            map[uint64]bool
}

// txnSet is a set of transactions, dense for one node's: a bit per sequence
// number the node had handed out when the set was made (its transaction
// table's length), and a map, made on first use, for any other transaction —
// another node's, or one begun since.
type txnSet struct {
	node  machine.NodeID
	bits  []uint64
	other map[wal.TxnID]bool
}

func newTxnSet(n machine.NodeID, seqs uint64) txnSet {
	return txnSet{node: n, bits: make([]uint64, seqs/64+1)}
}

// word returns the word and bit holding t, nil if t is not a dense member.
func (s *txnSet) word(t wal.TxnID) (*uint64, uint64) {
	q := t.Seq()
	if t.Node() != s.node || q/64 >= uint64(len(s.bits)) {
		return nil, 0
	}
	return &s.bits[q/64], 1 << (q % 64)
}

func (s *txnSet) add(t wal.TxnID) {
	if w, bit := s.word(t); w != nil {
		*w |= bit
		return
	}
	if s.other == nil {
		s.other = make(map[wal.TxnID]bool)
	}
	s.other[t] = true
}

func (s *txnSet) has(t wal.TxnID) bool {
	if w, bit := s.word(t); w != nil {
		return *w&bit != 0
	}
	return s.other[t]
}

// views builds one recovery attempt's view set, indexed by node: survivors
// (the nodes in alive) expose their full logs — their memory survived — and
// every other node, listed in down, only its stable prefix. It is filled
// here, before the first phase, so the phases only ever read it. The walks
// also emit the attempt's redo candidates, a down node's replayed by coord;
// cands is their list as the walks left it, which collectRedo settles.
func (db *DB) views(alive []machine.NodeID, coord machine.NodeID) (vs []*logView, cands []redoCand, down []machine.NodeID) {
	up := nodeSet(alive)
	vs = make([]*logView, db.M.Nodes())
	room := 0
	for _, l := range db.Logs {
		room += l.RedoLen()
	}
	rl := redoList{buf: make([]redoCand, room), hi: room}
	for i := range vs {
		n := machine.NodeID(i)
		if up[n] {
			vs[i] = db.view(n, n, &rl)
			continue
		}
		vs[i] = db.downView(n, coord, &rl)
		down = append(down, n)
	}
	return vs, rl.buf[:rl.lo], down
}

// redoList is the one slice an attempt's walks emit redo candidates into,
// sized by the logs' counts of update and compensation records. Its front
// fills with the candidates, in node order and each node's in log order: the
// list the apply phase takes. A survivor's walk that meets a checkpoint
// record moves what it emitted so far to the back, where old records wait
// for the tag scan.
type redoList struct {
	buf    []redoCand
	lo, hi int // the front is buf[:lo], the back buf[hi:]
}

// push appends c to the front. Should the two ends meet — a log gained
// records between its count and its walk — the storage grows; views already
// built keep the old one, whose contents do not change.
func (rl *redoList) push(c redoCand) {
	if rl.lo == rl.hi {
		buf := make([]redoCand, 2*len(rl.buf)+64)
		back := len(rl.buf) - rl.hi
		copy(buf, rl.buf[:rl.lo])
		copy(buf[len(buf)-back:], rl.buf[rl.hi:])
		rl.buf, rl.hi = buf, len(buf)-back
	}
	rl.buf[rl.lo] = c
	rl.lo++
}

// retire moves the front's candidates from index from on to the back.
func (rl *redoList) retire(from int) {
	rl.hi -= rl.lo - from
	copy(rl.buf[rl.hi:], rl.buf[from:rl.lo])
	rl.lo = from
}

// newView starts node n's view: the summary sets, empty.
func (db *DB) newView(n machine.NodeID) *logView {
	seqs := db.nodes[n].seq.Load()
	return &logView{
		node:      n,
		committed: newTxnSet(n, seqs),
		aborted:   newTxnSet(n, seqs),
		ntaDone:   make(map[uint64]bool),
	}
}

// note files r in v's summary sets.
func (v *logView) note(r *wal.Record) {
	switch r.Type {
	case wal.TypeCommit:
		v.committed.add(r.Txn)
	case wal.TypeAbort:
		v.aborted.add(r.Txn)
	case wal.TypeNTAEnd:
		v.ntaDone[r.NTA] = true
	}
}

// downView reads down node n's stable prefix for views, the attempt's one
// read of it: the walk reads the device in place and copies out only the
// update and compensation records, into one slab, and the rest fill the
// summary sets. Its commit set is complete only at the walk's end, so its
// candidates — the committed effects after the last checkpoint, replayed by
// onto — are a filter of those copies after it.
func (db *DB) downView(n, onto machine.NodeID, rl *redoList) *logView {
	v := db.newView(n)
	l := db.Logs[n]
	redos := 0
	v.redo = l.StableRecords(l.RedoLen(), func(r *wal.Record) bool {
		v.note(r)
		switch {
		case r.Type == wal.TypeCheckpoint:
			v.ckpt = redos
		case isRedoRecord(r):
			redos++
			return true
		}
		return false
	})
	first := rl.lo
	for _, rec := range v.redo[v.ckpt:] {
		if v.committedEffect(rec) {
			rl.push(db.candidate(onto, rec))
		}
	}
	v.cands = rl.buf[first:rl.lo]
	return v
}

// view walks survivor n's log for views, the attempt's one read of it, and
// emits its redo candidates, replayed by onto, as it goes: each update and
// compensation record is decided while the walk has it in hand (see redoes),
// and a checkpoint record retires what was emitted before it. The walk reads
// the records the log held when it began, and leaves what the log gains
// after to the tail. held is sized by the few live transactions' records it
// takes (a longer list grows; the records it points at never move).
func (db *DB) view(n, onto machine.NodeID, rl *redoList) *logView {
	v := db.newView(n)
	l := db.Logs[n]
	v.log = l
	left := l.Len()
	v.held = make([]*wal.Record, 0, min(left, heldRoom))
	first, back := rl.lo, len(rl.buf)-rl.hi
	// A transaction that has finished never becomes live again, and one dead
	// stays dead through the attempt's redo, so the walk looks a transaction
	// up (lock-free, so safe under the log mutex) once per run of its lock and
	// update records.
	var run wal.TxnID
	live, dead := false, false
	l.Each(1, func(r *wal.Record) bool {
		if left == 0 {
			return false
		}
		left--
		v.end = r.LSN + 1
		v.note(r)
		if r.Type == wal.TypeCheckpoint {
			rl.retire(first)
			return true
		}
		plain := r.Type == wal.TypeUpdate && r.NTA == 0
		if plain || isLockRecord(r) {
			if r.Txn != run {
				run = r.Txn
				st := db.lookup(run)
				live, dead = st != nil && st.live(), st != nil && st.dead()
			}
			if live {
				v.held = append(v.held, r)
			}
		}
		if isRedoRecord(r) && v.redoes(r, plain && dead) {
			rl.push(db.candidate(onto, r))
		}
		return true
	})
	v.cands = rl.buf[first:rl.lo]
	v.old = rl.buf[rl.hi : len(rl.buf)-back]
	return v
}

// heldRoom is the room a survivor's held list starts with: the lock and
// update records of the handful of transactions in flight on a node.
const heldRoom = 256

// tail returns a copy of the records a survivor's log gained after the
// attempt's walk of it, normally none (nil for a down node).
func (v *logView) tail() []wal.Record {
	if v.log == nil {
		return nil
	}
	return v.log.Records(v.end)
}

// isLockRecord reports whether r is a logical lock-log record.
func isLockRecord(r *wal.Record) bool {
	return r.Type == wal.TypeLockAcquire || r.Type == wal.TypeLockRelease
}

// committedEffect reports whether rec, an update or compensation record of
// v's log, is a logically committed effect: a compensation, a completed
// structural change, or an update of a committed transaction.
func (v *logView) committedEffect(rec *wal.Record) bool {
	return rec.Type == wal.TypeCLR || rec.NTA != 0 && v.ntaDone[rec.NTA] || v.committed.has(rec.Txn)
}

// txnDead reports whether t is known to the engine as aborted — including
// settled as aborted by a previous restart recovery after its node crashed.
// Such a transaction's updates must never be replayed from a log.
func (db *DB) txnDead(t wal.TxnID) bool {
	st := db.lookup(t)
	return st != nil && st.dead()
}

// txnLive reports whether t is known to the engine as active on a node that
// has not crashed under it — a transaction whose updates stay uncommitted
// through recovery.
func (db *DB) txnLive(t wal.TxnID) bool {
	st := db.lookup(t)
	return st != nil && st.live()
}

// redoTag is the undo tag a slot gets when rec is redone into it: the
// updating node's if rec is an undoable update of a transaction still active
// on a surviving node (it stays uncommitted through recovery), else none.
func (db *DB) redoTag(rec *wal.Record) machine.NodeID {
	if db.Cfg.Protocol.UndoTagging() && rec.Type == wal.TypeUpdate && rec.NTA == 0 && db.txnLive(rec.Txn) {
		return rec.Txn.Node()
	}
	return machine.NoNode
}

// redoCand is one redo candidate: a log record whose effect may be missing,
// the node that will replay it, and what the apply phase reads of the record
// at every candidate — its slot's index in the store (heap.Store.SlotIndex;
// -1 if the record names no slot of it) and its version — copied while the
// walk had the record in hand. It refers to the record where the attempt's
// view holds it (see logView).
type redoCand struct {
	rec  *wal.Record
	ver  uint64
	slot int32
	onto machine.NodeID
}

// candidate makes rec, an update or compensation record, a redo candidate
// replayed by onto.
func (db *DB) candidate(onto machine.NodeID, rec *wal.Record) redoCand {
	slot, err := db.Store.SlotIndex(heap.RID{Page: rec.Page, Slot: rec.Slot})
	if err != nil {
		slot = -1
	}
	return redoCand{rec: rec, ver: rec.Version, slot: int32(slot), onto: onto}
}

// isRedoRecord reports whether r is a record redo reads: an update or a
// compensation record.
func isRedoRecord(r *wal.Record) bool {
	return r.Type == wal.TypeUpdate || r.Type == wal.TypeCLR
}

// redoes reports whether rec, an update or compensation record of survivor
// v's log, is a redo candidate, dead saying whether its transaction is (see
// txnDead). A restarted node's log can still carry updates of a transaction
// that died with an earlier crash. If that crash also destroyed the only copy
// of the effect, no compensation record was ever written — the undo was
// skipped as moot — so replaying the update here would resurrect it, and the
// undo pass (which covers only the currently-down nodes) would never see it
// again. (A down node's candidates are its committed effects.)
func (v *logView) redoes(rec *wal.Record, dead bool) bool {
	return rec.Type != wal.TypeUpdate || rec.NTA != 0 || !dead || v.committed.has(rec.Txn)
}

// collectRedo is the redo scan phase: it settles the candidates the walks
// emitted (views) into the list the apply phase takes. Surviving nodes replay
// their own full logs from their last checkpoints (everything: committed,
// active, and compensation records — surviving active transactions' updates
// are preserved under IFA), tails included: under Redo All an update a
// survivor logged after the walk may have been in the caches flushAllCaches
// just discarded. Down nodes — whether they crashed just now or in an earlier
// failure — contribute their stable prefixes only, filtered to logically
// committed effects; their uncommitted updates are not repeated, as they are
// about to be undone anyway. Version comparison in the apply phase makes redo
// idempotent and order-independent across logs. The list is in node order,
// each node's candidates in log order.
//
// A survivor's candidates are decided as a filter of its whole log here
// would decide them. The walk judged each transaction as it then was. A dead
// one stays dead until this attempt settles the victims, after redo, and a
// transaction dies only from live (txnState.live), so a walk-time verdict can
// have changed only for one live during the walk, which its held records
// name: one that has died since — it ended during Recover — loses its
// updates' candidacy here. Its compensation and abort records are in the
// tail, which is read here too. Normally neither happens, and cands is
// returned as the walks left it; otherwise the list is copied.
func (db *DB) collectRedo(vs []*logView, cands []redoCand) []redoCand {
	var tails [][]wal.Record
	var died []map[wal.TxnID]bool
	for i, v := range vs {
		if v.log == nil {
			continue
		}
		tail, gone := v.tail(), db.diedSinceWalk(v)
		if len(tail) == 0 && gone == nil {
			continue
		}
		if tails == nil {
			tails, died = make([][]wal.Record, len(vs)), make([]map[wal.TxnID]bool, len(vs))
		}
		tails[i], died[i] = tail, gone
	}
	if tails == nil {
		for _, v := range vs {
			db.progress(obs.PhaseRedoScan, len(v.cands), 0, 0)
		}
		return cands
	}
	n := len(cands)
	for _, tail := range tails {
		n += len(tail)
	}
	out := make([]redoCand, 0, n)
	for i, v := range vs {
		first := len(out)
		for _, c := range v.cands {
			if died[i] == nil || !died[i][c.rec.Txn] || v.redoes(c.rec, true) {
				out = append(out, c)
			}
		}
		for j := range tails[i] {
			if rec := &tails[i][j]; isRedoRecord(rec) && v.redoes(rec, db.txnDead(rec.Txn)) {
				out = append(out, db.candidate(v.node, rec))
			}
		}
		db.progress(obs.PhaseRedoScan, len(out)-first, 0, 0)
	}
	return out
}

// diedSinceWalk returns the transactions that were live during the walk of
// survivor v's log and have died since with no commit in the view, nil if
// none.
func (db *DB) diedSinceWalk(v *logView) map[wal.TxnID]bool {
	var gone map[wal.TxnID]bool
	var run wal.TxnID
	for _, r := range v.held {
		if r.Txn == run {
			continue
		}
		run = r.Txn
		if !v.committed.has(run) && db.txnDead(run) {
			if gone == nil {
				gone = make(map[wal.TxnID]bool)
			}
			gone[run] = true
		}
	}
	return gone
}

// undoCrashed rolls back the down nodes' active transactions using their
// stable logs (the down views of vs): every update whose effect is still
// present is reverted to the transaction's earliest before image for that
// slot (the last committed value, by strict 2PL). Incomplete structural
// changes (an NTA with no stable end record) are undone too.
func (db *DB) undoCrashed(coord machine.NodeID, vs []*logView, rep *RecoveryReport) error {
	var pb progressBatch
	defer db.flushProgress(&pb, obs.PhaseUndo)
	for _, v := range vs {
		if v.log != nil {
			continue
		}
		// Active on the crashed node = stable records, no stable
		// commit/abort.
		undoByTxn := make(map[wal.TxnID]undoSet)
		for _, rec := range v.redo {
			if rec.Type != wal.TypeUpdate || v.committed.has(rec.Txn) || v.aborted.has(rec.Txn) {
				continue
			}
			if rec.NTA != 0 && v.ntaDone[rec.NTA] {
				continue // early-committed structural change: keep
			}
			m := undoByTxn[rec.Txn]
			if m == nil {
				m = make(undoSet)
				undoByTxn[rec.Txn] = m
			}
			m.add(rec)
		}
		// Install in sorted (txn, rid) order: each installImage draws a
		// fresh global version for its compensation record, so map-order
		// iteration would assign versions to slots differently run to run
		// and break chaos replay's image comparison.
		txns := make([]wal.TxnID, 0, len(undoByTxn))
		for txn := range undoByTxn {
			txns = append(txns, txn)
		}
		sortTxns(txns)
		for _, txn := range txns {
			m := undoByTxn[txn]
			rids := make([]heap.RID, 0, len(m))
			for rid := range m {
				rids = append(rids, rid)
			}
			sort.Slice(rids, func(i, j int) bool {
				if rids[i].Page != rids[j].Page {
					return rids[i].Page < rids[j].Page
				}
				return rids[i].Slot < rids[j].Slot
			})
			for _, rid := range rids {
				su := m[rid]
				if done, err := db.undoSlot(coord, txn, rid, su, true); err != nil {
					return err
				} else if !done {
					continue
				}
				rep.UndoApplied++
				db.noteProgress(&pb, obs.PhaseUndo, 1, len(su.earliest))
			}
		}
	}
	return nil
}

// undoTagScan is the Selective Redo undo phase: every surviving node
// sequentially scans its cached lines; any record tagged with a crashed
// node's ID is an uncommitted update of a dead transaction that migrated
// here, and is reverted to its last committed value taken from stable
// store (a committed update record in an available log, or failing that the
// stable database image).
//
// The scan also reconciles stale tags pointing at *surviving* nodes. A tag
// is not versioned: a page stolen to disk while a record was active carries
// the tag, and if the record's line later dies and is reinstalled from that
// disk image after the tagging transaction committed, the stale tag
// resurfaces. A tag naming live node n is legitimate only if n's log — which
// survived intact — contains an update record for exactly this slot and
// version belonging to a transaction that is still active; otherwise the
// record is no longer active and the tag is nulled. Such a transaction was
// live during the attempt's walk of n's log or began after it, so the check
// reads only n's view's live updates and its tail (see logView.tagger).
//
// Each survivor in turn scans its cached lines (read-only), then applies the
// repairs that scan called for before the next survivor scans: an applied
// repair migrates the line exclusively to the fixer, so later survivors'
// scans no longer find it in their caches and each rid is repaired (and each
// line counted in TagScanLines) exactly once.
func (db *DB) undoTagScan(alive, crashed []machine.NodeID, vs []*logView, rep *RecoveryReport) error {
	down := nodeSet(crashed)
	for _, n := range alive {
		acts, lines, err := db.scanNodeTags(n, down, vs)
		if err != nil {
			return err
		}
		rep.TagScanLines += lines
		if err := db.applyTagActions(acts, vs, rep); err != nil {
			return err
		}
	}
	return nil
}

// nodeSet builds a membership set from a node list.
func nodeSet(nodes []machine.NodeID) map[machine.NodeID]bool {
	s := make(map[machine.NodeID]bool, len(nodes))
	for _, n := range nodes {
		s[n] = true
	}
	return s
}

// tagger returns the transaction whose update record in survivor v's log
// wrote version ver of rid, looking among the updates of the transactions
// live during the walk and then in the tail; ok is false if neither holds
// one.
func (v *logView) tagger(rid heap.RID, ver uint64) (txn wal.TxnID, ok bool) {
	wrote := func(r *wal.Record) bool {
		return r.Type == wal.TypeUpdate && r.NTA == 0 && r.Page == rid.Page && r.Slot == rid.Slot && r.Version == ver
	}
	for _, r := range v.held {
		if wrote(r) {
			return r.Txn, true
		}
	}
	tail := v.tail()
	for i := range tail {
		if wrote(&tail[i]) {
			return tail[i].Txn, true
		}
	}
	return 0, false
}

// tagAction is one repair decision produced by a tag scan: either an undo of
// a dead transaction's migrated update (undo=true; tag is the crashed node
// the record's tag named) or a stale-tag clear (undo=false).
type tagAction struct {
	nd   machine.NodeID // the scanning node, which performs the repair
	rid  heap.RID
	tag  machine.NodeID
	undo bool
}

// scanNodeTags scans nd's cached database lines read-only, in ascending
// order, and returns the repair actions they call for, plus the number of
// lines examined. It asks the machine of each data line of the store whether
// nd caches it, and all its coherency traffic is read hits on lines nd does.
func (db *DB) scanNodeTags(nd machine.NodeID, down map[machine.NodeID]bool, vs []*logView) ([]tagAction, int, error) {
	var acts []tagAction
	lines := 0
	var buf heap.SlotBuf
	lay := db.Store.Layout
	for p := storage.PageID(0); int(p) < db.Store.NPages; p++ {
		for dl := 1; dl < lay.LinesPerPage; dl++ {
			if !db.M.Caches(nd, db.Store.PageBase(p)+machine.LineID(dl)) {
				continue
			}
			lines++
			for i := range lay.RecsPerLine {
				rid := heap.RID{Page: p, Slot: uint16((dl-1)*lay.RecsPerLine + i)}
				sd, err := db.Store.ReadSlot(nd, rid, &buf)
				if err != nil {
					return nil, lines, err
				}
				switch {
				case sd.Tag == machine.NoNode:
				case down[sd.Tag]:
					acts = append(acts, tagAction{nd: nd, rid: rid, tag: sd.Tag, undo: true})
				default:
					// Tag names a surviving node: verify against its log.
					txn, ok := vs[sd.Tag].tagger(rid, sd.Version)
					if !ok || !db.txnLive(txn) {
						acts = append(acts, tagAction{nd: nd, rid: rid, tag: sd.Tag})
					}
				}
			}
		}
	}
	db.progress(obs.PhaseUndoTagScan, lines, 0, 0)
	return acts, lines, nil
}

// applyTagActions performs the repairs a tag scan decided on.
func (db *DB) applyTagActions(acts []tagAction, vs []*logView, rep *RecoveryReport) error {
	for _, a := range acts {
		if !a.undo {
			if err := db.clearStaleTag(a.nd, a.rid); err != nil {
				return err
			}
			continue
		}
		img, err := db.lastCommittedFromStable(a.nd, a.rid, vs)
		if err != nil {
			return err
		}
		if err := db.installImage(a.nd, a.rid, img, wal.MakeTxnID(a.tag, 0)); err != nil {
			return err
		}
		rep.UndoApplied++
	}
	return nil
}

// clearStaleTag nulls rid's undo tag under a line lock.
func (db *DB) clearStaleTag(nd machine.NodeID, rid heap.RID) error {
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		return err
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, nd, line); err != nil {
		return err
	}
	defer db.mustLeave(&sec, nd)
	return db.Store.WriteTagIn(&sec, rid, machine.NoNode)
}

// lastCommittedFromStable derives rid's last committed image without any
// crashed node's volatile state: the newest committed effect for rid in any
// view (lastCommittedInViews); if there is none, the stable database's
// image. Like every summary, a survivor's view is as of the attempt's walk.
func (db *DB) lastCommittedFromStable(nd machine.NodeID, rid heap.RID, vs []*logView) ([]byte, error) {
	slot, err := db.Store.SlotIndex(rid)
	if err != nil {
		return nil, err
	}
	if best := lastCommittedInViews(rid, slot, vs); best != nil {
		// The caller logs the image: hand it a copy, not a slice of a view.
		return slices.Clone(best), nil
	}
	// Fall back to the stable database image, read through the buffer
	// manager's retrying reader: recovery must outlast a flaky disk.
	if db.Disk.Exists(rid.Page) {
		img := make([]byte, db.Disk.PageSize())
		if err := db.BM.ReadPage(nd, rid.Page, img); err != nil {
			return nil, err
		}
		db.M.AdvanceClock(nd, db.M.Config().Cost.DiskRead)
		layout := db.Store.Layout
		lineInPage := 1 + int(rid.Slot)/layout.RecsPerLine
		lineImg := img[lineInPage*layout.LineSize : (lineInPage+1)*layout.LineSize]
		sd := heap.DecodeSlotFromLine(layout, lineImg, int(rid.Slot)%layout.RecsPerLine)
		return SlotImage(layout, sd.Flags, sd.Data), nil
	}
	// Never committed, never flushed: the record's pre-existence image is
	// the empty slot.
	return SlotImage(db.Store.Layout, 0, nil), nil
}

// lastCommittedInViews returns the after image of the newest update/CLR for
// rid, whose store index is slot, that belongs to a committed transaction
// (or is itself a compensation or committed structural record) in any view;
// nil if there is none.
func lastCommittedInViews(rid heap.RID, slot int, vs []*logView) []byte {
	var best []byte
	var bestVersion uint64
	for _, v := range vs {
		for _, rec := range v.redo {
			if rec.Page == rid.Page && rec.Slot == rid.Slot && rec.Version > bestVersion && v.committedEffect(rec) {
				bestVersion, best = rec.Version, rec.After
			}
		}
		if v.log == nil {
			continue
		}
		// A survivor's records are its candidates and its old ones (a dead
		// transaction's update, which the walk left out, is no committed
		// effect).
		for _, cs := range [2][]redoCand{v.old, v.cands} {
			for _, c := range cs {
				if int(c.slot) == slot && c.ver > bestVersion && v.committedEffect(c.rec) {
					bestVersion, best = c.ver, c.rec.After
				}
			}
		}
	}
	return best
}

// replaySurvivorLocks re-requests, for every surviving active transaction,
// the locks its node's log records as acquired and not released. Acquire is
// idempotent (a present holder or waiter entry is not duplicated), so
// surviving LCBs are unaffected while destroyed ones are rebuilt — with
// read locks included, which is why IFA logs them.
func (db *DB) replaySurvivorLocks(alive []machine.NodeID, vs []*logView) (int, error) {
	db.Locks.SetLogSuppressed(true)
	defer db.Locks.SetLogSuppressed(false)
	total := 0
	for _, n := range alive {
		c, err := db.replayNodeLocks(vs[n])
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// replayNodeLocks replays one surviving node's logical lock log (each node's
// pre-crash holdings were simultaneously granted, hence mutually compatible,
// so the replay re-grants without waiting, and Acquire is idempotent).
//
// Only a transaction still live has locks to rebuild, so the replay reads the
// lock records the view kept for the transactions live during the walk, then
// those of live transactions in the tail — never the records of the
// transactions that finished, nearly all of a long log. A transaction that
// finishes after the walk is caught below, by the bookkeeping check or the
// re-check after the grant.
func (db *DB) replayNodeLocks(v *logView) (int, error) {
	n := v.node
	type lockKey struct {
		txn  wal.TxnID
		name uint64
	}
	// order lists each live transaction's locks once, by first acquire; held
	// says whether the last record for one was an acquire. Both start with
	// room for the handful of transactions in flight on a node.
	const inFlight = 64
	held := make(map[lockKey]bool, inFlight)
	order := make([]lockKey, 0, inFlight)
	note := func(rec *wal.Record) {
		k := lockKey{rec.Txn, rec.Lock}
		if _, seen := held[k]; !seen {
			order = append(order, k)
		}
		held[k] = rec.Type == wal.TypeLockAcquire
	}
	for _, rec := range v.held {
		if isLockRecord(rec) {
			note(rec)
		}
	}
	tail := v.tail()
	for i := range tail {
		if rec := &tail[i]; isLockRecord(rec) && db.txnLive(rec.Txn) {
			note(rec)
		}
	}
	replayed := 0
	for _, k := range order {
		if !held[k] {
			continue
		}
		// Re-grant only what the transaction's own bookkeeping confirms it
		// holds, in the bookkeeping's mode. The log alone over-approximates:
		// an acquire record is written before the grant decision, so it may
		// belong to a request that was only ever queued — and possibly
		// withdrawn during this very recovery, when lock logging is
		// suppressed and no release record can mark the withdrawal. A queued
		// request is recorded among the transaction's wants, never among its
		// held locks, so it is not re-granted here; its owner's next Lock call
		// re-queues it against the rebuilt table, and ReleaseLocks withdraws
		// it if the owner never comes back. Entries the bookkeeping does
		// confirm are exactly the ones ReleaseLocks frees at finish, so a
		// survivor finishing after this point cleans up behind us.
		var mode lock.Mode
		noted := false
		if st := db.lookup(k.txn); st != nil && st.live() {
			nc := &db.nodes[k.txn.Node()]
			nc.mu.Lock()
			for _, hl := range st.locks {
				if hl.Name == importName(k.name) {
					mode, noted = hl.Mode, true
					break
				}
			}
			nc.mu.Unlock()
		}
		if !noted {
			continue
		}
		if _, err := db.Locks.Acquire(n, k.txn, importName(k.name), mode); err != nil {
			return replayed, err
		}
		// The transaction can still commit or abort between the bookkeeping
		// check above and the grant: its ReleaseLocks then ran against the
		// half-rebuilt table, found nothing, and tolerated ErrNotHeld — so
		// the grant would leak. Re-check and take the grant back if the
		// transaction finished in the window; a finish after this re-check
		// sees the granted entry (it is in its held-lock list) and releases
		// it itself.
		if !db.txnLive(k.txn) {
			if err := db.Locks.Release(n, k.txn, importName(k.name)); err != nil && !errors.Is(err, lock.ErrNotHeld) {
				return replayed, err
			}
			continue
		}
		replayed++
	}
	db.progress(obs.PhaseLockRebuild, replayed, 0, 0)
	return replayed, nil
}

// baselineReboot implements the conventional recovery story the paper's
// introduction describes: a single node crash brings down the entire shared
// memory system. Every node's volatile state — caches, volatile log tails,
// transaction control blocks, the whole lock space — is lost; recovery
// replays committed work from the stable logs and aborts every transaction
// that was active anywhere.
func (db *DB) baselineReboot(rep *RecoveryReport, phase func(obs.Phase)) error {
	// The rest of the machine goes down too.
	rest := db.M.AliveNodes()
	db.Crash(rest...)
	for n := machine.NodeID(0); int(n) < db.M.Nodes(); n++ {
		if err := db.M.Restart(n); err != nil {
			return err
		}
		db.Logs[n].Reopen()
	}
	coord := machine.NodeID(0)
	// The lock table is volatile and gone; reformat it.
	if _, err := db.Locks.ReinstallLost(coord); err != nil {
		return err
	}
	if _, err := db.Locks.ReleaseCrashed(coord, db.M.AliveNodes()); err != nil {
		return err
	}
	phase(obs.PhaseDirectoryRepair)
	// Redo committed effects from every node's stable log.
	vs, cands, _ := db.views(nil, coord) // stable prefixes only: everything volatile died
	if err := db.applyRedo(db.collectRedo(vs, cands), rep); err != nil {
		return err
	}
	phase(obs.PhaseRedoApply)
	// Undo stolen uncommitted updates from the stable logs.
	if err := db.undoCrashed(coord, vs, rep); err != nil {
		return err
	}
	phase(obs.PhaseUndo)
	// Every active transaction aborts: failure atomicity without isolation.
	db.eachTxn(func(nc *nodeCtl, st *txnState) {
		if st.stat() == TxnActive {
			st.crashed.Store(true)
			st.status.Store(int32(TxnAborted))
			nc.stats.Aborts++
			nc.stats.TxnsAbortedByRecovery++
			rep.Aborted = append(rep.Aborted, st.id)
		}
	})
	phase(obs.PhaseSettle)
	sortTxns(rep.Aborted)
	db.mu.Lock()
	db.recStats.RedoApplied += int64(rep.RedoApplied)
	db.recStats.RedoSkipped += int64(rep.RedoSkipped)
	db.recStats.UndoApplied += int64(rep.UndoApplied)
	db.mu.Unlock()
	return nil
}

// RestartNode brings a crashed node back into the configuration with a cold
// cache and a reopened log. Its stable log prefix is intact; its next
// transactions get fresh sequence numbers.
func (db *DB) RestartNode(n machine.NodeID) error {
	if err := db.M.Restart(n); err != nil {
		return err
	}
	db.Logs[n].Reopen()
	return nil
}

func sortTxns(ts []wal.TxnID) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

func importName(n uint64) lock.Name { return lock.Name(n) }
