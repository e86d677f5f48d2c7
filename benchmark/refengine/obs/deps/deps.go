// Package deps maintains the live recovery-dependency graph of the paper's
// section 3: cache-coherency traffic silently places a transaction's
// uncommitted updates in other nodes' failure domains, and the LBM policies
// exist precisely to neutralize those hidden dependencies. The Tracker
// consumes the engine's coherency event stream (migrations, replications,
// downgrades, invalidations, installs, discards, trigger fires) plus
// transaction lifecycle and WAL-force events, and maintains:
//
//   - per transaction, its *node-dependency set*: every node that currently
//     caches a line carrying the transaction's uncommitted data, with the
//     coherency event that exposed it and the covering log record's LSN;
//   - per cache line, its bounded *residency history*: the sequence of
//     installs, migrations, replications, and losses, so a post-mortem can
//     cite the concrete transition that moved data into a failure domain.
//
// Three consumers sit on top: the IFA explainer (verdict.go) renders
// per-transaction verdicts at crash time; the exporters (export.go) serve
// the graph as DOT and JSON for the live introspection server and the crash
// flight recorder; and the dependency census (export.go) feeds experiment
// E17's policy comparison.
//
// A nil *Tracker is fully inert: every method is nil-receiver safe, so
// engine hooks cost a single pointer test when dependency tracking is off.
package deps

import (
	"fmt"
	"sort"
	"sync"

	"smdb/benchmark/refengine/obs"
)

// historyCap bounds each line's retained residency history; the newest
// steps win, matching the flight recorder's last-N philosophy.
const historyCap = 32

// ResidencyStep is one entry of a line's residency history.
type ResidencyStep struct {
	Sim  int64  `json:"sim"`
	Kind string `json:"kind"` // install|migrate|replicate|downgrade|invalidate|discard|lost|lbm-trigger
	From int32  `json:"from"` // -1 when not applicable
	To   int32  `json:"to"`   // -1 when not applicable
}

// Edge is one recovery-dependency edge: transaction Txn (home node From)
// has uncommitted data on line Line currently cached by node To, exposed by
// coherency event Kind at simulated time Sim. LSN is the highest log record
// covering the transaction's updates to that line when the edge appeared
// (0 = no log record existed — the deferred-logging hazard); Unlogged is
// true if any covering update had no log record.
type Edge struct {
	Txn      int64  `json:"txn"`
	From     int32  `json:"from"`
	To       int32  `json:"to"`
	Line     int32  `json:"line"`
	Kind     string `json:"kind"`
	Sim      int64  `json:"sim"`
	LSN      int64  `json:"lsn"`
	Unlogged bool   `json:"unlogged"`
}

// Crash records one failure event fed to NoteCrash.
type Crash struct {
	Sim   int64   `json:"sim"`
	Nodes []int32 `json:"nodes"`
	Lost  []int32 `json:"lost_lines"`
}

// txn lifecycle states, tracker-side.
type txnStatus uint8

const (
	statusActive txnStatus = iota
	statusCommitted
	statusAborted
	statusCrashed
)

func (s txnStatus) String() string {
	switch s {
	case statusActive:
		return "active"
	case statusCommitted:
		return "committed"
	case statusAborted:
		return "aborted"
	case statusCrashed:
		return "crashed"
	}
	return "status?"
}

// write is one update a transaction applied (fed by NoteWrite).
type write struct {
	line int32
	slot int64
	lsn  int64 // 0 = never logged (deferred logging)
	sim  int64
}

type edgeKey struct {
	to   int32
	line int32
}

type txnState struct {
	id       int64
	node     int32
	status   txnStatus
	beginSim int64
	writes   map[int64]write // slot key -> latest write
	edges    []Edge
	edgeSet  map[edgeKey]bool
	depNodes uint64 // distinct nodes ever depended on
	unlogged bool   // ever exposed an unlogged update
}

type lineState struct {
	holders uint64
	history []ResidencyStep
	writers map[int64]bool // active txns with uncommitted data on this line
}

func (l *lineState) step(s ResidencyStep) {
	if len(l.history) >= historyCap {
		copy(l.history, l.history[1:])
		l.history = l.history[:historyCap-1]
	}
	l.history = append(l.history, s)
}

// Tracker is the dependency-graph tracker. Feed it events by installing it
// as the Observer's sink (obs.Observer.SetSink) and by calling the direct
// Note* hooks from the recovery layer (writes and crashes carry context the
// event stream alone does not). All methods are safe for concurrent use and
// nil-receiver safe.
type Tracker struct {
	// echo, when non-nil, receives a KindDepEdge instant for every edge
	// discovered, so Chrome traces render the dependency structure inline.
	echo *obs.Observer

	mu       sync.Mutex
	lines    map[int32]*lineState
	txns     map[int64]*txnState
	forced   map[int32]int64 // node -> highest stable LSN
	crashes  []Crash
	verdicts []Verdict

	// Cumulative census over settled transactions (active ones are folded
	// in at query time).
	settledTxns     int
	settledSizes    map[int]int // dep-set size -> settled txn count
	settledWithDeps int
	settledUnlogged int
	edgesTotal      int
	unloggedTotal   int
}

// New creates a tracker. echo may be nil; when set, every discovered
// dependency edge is echoed into it as a KindDepEdge instant.
func New(echo *obs.Observer) *Tracker {
	return &Tracker{
		echo:         echo,
		lines:        make(map[int32]*lineState),
		txns:         make(map[int64]*txnState),
		forced:       make(map[int32]int64),
		settledSizes: make(map[int]int),
	}
}

// Enabled reports whether tracking is live (false for a nil Tracker).
func (t *Tracker) Enabled() bool { return t != nil }

func bit(n int32) uint64 {
	if n < 0 || n >= 64 {
		return 0
	}
	return 1 << uint(n)
}

func popcount(m uint64) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// tname renders a transaction id as the engine prints it (wal.TxnID packs
// the home node in the high 16 bits and a per-node sequence below).
func tname(id int64) string {
	return fmt.Sprintf("t%d.%d", uint64(id)>>48, uint64(id)&((1<<48)-1))
}

func (t *Tracker) line(id int32) *lineState {
	l := t.lines[id]
	if l == nil {
		l = &lineState{writers: make(map[int64]bool)}
		t.lines[id] = l
	}
	return l
}

func (t *Tracker) ensureTxnLocked(id int64, node int32, sim int64) *txnState {
	ts := t.txns[id]
	if ts == nil {
		ts = &txnState{
			id: id, node: node, status: statusActive, beginSim: sim,
			writes:  make(map[int64]write),
			edgeSet: make(map[edgeKey]bool),
		}
		t.txns[id] = ts
	}
	return ts
}

// pendEdge is a dep-edge echo deferred until the tracker lock is released.
type pendEdge struct {
	node int32
	sim  int64
	txn  int64
	b    int64
}

// OnEvent is the obs.Sink hook: it folds one engine event into the graph.
// It may run with emitter locks (machine, wal) held, so it never calls back
// into the engine; dep-edge echoes go only to the Observer, after the
// tracker lock is released.
func (t *Tracker) OnEvent(e obs.Event) {
	if t == nil || e.Kind == obs.KindDepEdge {
		return
	}
	var pend []pendEdge
	t.mu.Lock()
	switch e.Kind {
	case obs.KindMigrate:
		// node = new exclusive holder, A = line, B = previous holder.
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "migrate", From: int32(e.B), To: e.Node})
		l.holders = bit(e.Node)
		pend = t.addDepsLocked(l, int32(e.A), e.Node, "migrate", e.Sim)
	case obs.KindDowngrade:
		// node = reader gaining a shared copy, A = line, B = former
		// exclusive holder (which keeps its copy).
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "downgrade", From: int32(e.B), To: e.Node})
		l.holders |= bit(e.Node)
		pend = t.addDepsLocked(l, int32(e.A), e.Node, "downgrade", e.Sim)
	case obs.KindReplicate:
		// node = new sharer, A = line, B = a prior holder.
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "replicate", From: int32(e.B), To: e.Node})
		l.holders |= bit(e.Node)
		pend = t.addDepsLocked(l, int32(e.A), e.Node, "replicate", e.Sim)
	case obs.KindInvalidate:
		// node = writer becoming sole exclusive holder, A = line.
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "invalidate", From: -1, To: e.Node})
		l.holders = bit(e.Node)
	case obs.KindInstall:
		// node = new sole holder, fresh content from stable storage.
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "install", From: -1, To: e.Node})
		l.holders = bit(e.Node)
	case obs.KindDiscard:
		l := t.line(int32(e.A))
		l.holders &^= bit(e.Node)
		if e.B != 0 {
			l.holders = 0
			l.step(ResidencyStep{Sim: e.Sim, Kind: "discard-lost", From: e.Node, To: -1})
		} else {
			l.step(ResidencyStep{Sim: e.Sim, Kind: "discard", From: e.Node, To: -1})
		}
	case obs.KindTriggerFire:
		l := t.line(int32(e.A))
		l.step(ResidencyStep{Sim: e.Sim, Kind: "lbm-trigger", From: -1, To: e.Node})
	case obs.KindWALForce:
		// B = highest stable LSN after the force.
		if e.B > t.forced[e.Node] {
			t.forced[e.Node] = e.B
		}
	case obs.KindTxnBegin:
		t.ensureTxnLocked(e.A, e.Node, e.Sim)
	case obs.KindTxnCommit:
		t.settleLocked(e.A, statusCommitted)
	case obs.KindTxnAbort:
		t.settleLocked(e.A, statusAborted)
	}
	t.mu.Unlock()
	for _, p := range pend {
		t.echo.Instant(obs.KindDepEdge, p.node, p.sim, p.txn, p.b)
	}
}

// addDepsLocked creates dependency edges: every active writer of line l now
// has uncommitted data in node to's failure domain. Returns the dep-edge
// echoes to emit once the lock is released. Writer iteration is sorted so
// edge discovery order is deterministic.
func (t *Tracker) addDepsLocked(l *lineState, line, to int32, kind string, sim int64) []pendEdge {
	if len(l.writers) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(l.writers))
	for id := range l.writers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return uint64(ids[i]) < uint64(ids[j]) })
	var pend []pendEdge
	for _, id := range ids {
		ts := t.txns[id]
		if ts == nil || ts.status != statusActive || ts.node == to {
			continue
		}
		k := edgeKey{to: to, line: line}
		if ts.edgeSet[k] {
			continue
		}
		ts.edgeSet[k] = true
		lsn, unlogged := lineLSN(ts, line)
		ts.edges = append(ts.edges, Edge{
			Txn: id, From: ts.node, To: to, Line: line,
			Kind: kind, Sim: sim, LSN: lsn, Unlogged: unlogged,
		})
		ts.depNodes |= bit(to)
		t.edgesTotal++
		if unlogged {
			t.unloggedTotal++
			ts.unlogged = true
		}
		if t.echo != nil {
			pend = append(pend, pendEdge{
				node: ts.node, sim: sim, txn: id,
				b: int64(to)<<32 | int64(uint32(line)),
			})
		}
	}
	return pend
}

// lineLSN summarizes a transaction's log coverage for its writes on line:
// the highest covering LSN and whether any covering update was never logged.
func lineLSN(ts *txnState, line int32) (lsn int64, unlogged bool) {
	for _, w := range ts.writes {
		if w.line != line {
			continue
		}
		if w.lsn == 0 {
			unlogged = true
		} else if w.lsn > lsn {
			lsn = w.lsn
		}
	}
	return lsn, unlogged
}

// settleLocked finishes a transaction: its dep-set size joins the census and
// it leaves the live graph.
func (t *Tracker) settleLocked(id int64, status txnStatus) {
	ts := t.txns[id]
	if ts == nil {
		return
	}
	ts.status = status
	size := popcount(ts.depNodes)
	t.settledTxns++
	t.settledSizes[size]++
	if size > 0 {
		t.settledWithDeps++
	}
	if ts.unlogged {
		t.settledUnlogged++
	}
	for _, w := range ts.writes {
		if l := t.lines[w.line]; l != nil {
			delete(l.writers, id)
		}
	}
	delete(t.txns, id)
}

// NoteWrite records one update transaction txn applied on its home node:
// the written line, a stable slot key, the covering log record's LSN (0 if
// the update was never logged — the deferred-logging negative control), and
// the simulated time. It is called from inside the update critical section
// (the line lock pins the line), so the write is registered before the line
// can move. Under write-broadcast coherency the fresh data is already
// resident on every sharer, so edges to current remote holders are created
// immediately.
func (t *Tracker) NoteWrite(txn int64, node, line int32, slot, lsn, sim int64) {
	if t == nil {
		return
	}
	var pend []pendEdge
	t.mu.Lock()
	ts := t.ensureTxnLocked(txn, node, sim)
	ts.writes[slot] = write{line: line, slot: slot, lsn: lsn, sim: sim}
	l := t.line(line)
	l.writers[txn] = true
	l.holders |= bit(node)
	for n := int32(0); n < 64; n++ {
		if n != node && l.holders&bit(n) != 0 {
			pend = append(pend, t.addDepsLocked(l, line, n, "broadcast", sim)...)
		}
	}
	t.mu.Unlock()
	for _, p := range pend {
		t.echo.Instant(obs.KindDepEdge, p.node, p.sim, p.txn, p.b)
	}
}

// TxnRef identifies one in-flight transaction the engine knows about at a
// crash instant: the victim list the recovery layer hands to NoteCrash so
// the explainer's census cannot lag the engine's.
type TxnRef struct {
	ID   int64
	Node int32
}

// NoteCrash folds a node-failure event into the graph: the crashed nodes'
// cached copies vanish, the listed lines are destroyed outright (the crash
// held their sole copies), transactions homed on crashed nodes become crash
// victims, and the IFA explainer computes a verdict for every in-flight
// transaction against the crash-instant state. It is called from the
// recovery layer's crash-notify hook — with the machine lock held — so it
// must not (and does not) call back into the engine.
//
// victims is the verdict-presence barrier: the engine's own census of
// active transactions homed on the crashed nodes, taken under its lock in
// the same crash callback. Transaction registration normally rides the
// KindTxnBegin observer event, which DB.Begin emits *after* releasing its
// lock — so a crash landing in that window reaches the tracker before the
// begin event does, the explainer issues no verdict for the victim, and the
// cross-check later flags "recovery aborted tX.Y but explainer issued no
// verdict". Registering the listed victims here, atomically with the
// verdict computation, closes that window; the late begin event then finds
// the transaction already known and is a no-op.
func (t *Tracker) NoteCrash(crashed, lost []int32, victims []TxnRef, sim int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, v := range victims {
		t.ensureTxnLocked(v.ID, v.Node, sim)
	}
	var cmask uint64
	for _, n := range crashed {
		cmask |= bit(n)
	}
	lostSet := make(map[int32]bool, len(lost))
	for _, ln := range lost {
		lostSet[ln] = true
		l := t.line(ln)
		l.holders = 0
		l.step(ResidencyStep{Sim: sim, Kind: "lost", From: -1, To: -1})
	}
	for _, l := range t.lines {
		l.holders &^= cmask
	}
	crash := Crash{Sim: sim, Nodes: append([]int32(nil), crashed...), Lost: append([]int32(nil), lost...)}
	t.crashes = append(t.crashes, crash)
	var newly []*txnState
	for _, ts := range t.txns {
		if ts.status == statusActive && cmask&bit(ts.node) != 0 {
			ts.status = statusCrashed
			newly = append(newly, ts)
		}
	}
	t.verdicts = append(t.verdicts, t.explainLocked(crash, lostSet, newly)...)
}

// NoteRecovered marks the end of a successful restart recovery: crash
// victims recovery aborted settle as aborted, the remaining victims settle
// as committed (their commit records were stable — the crash only ate the
// acknowledgement), and the crash episode closes. Accumulated verdicts stay
// until TakeVerdicts drains them.
func (t *Tracker) NoteRecovered(aborted []int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ab := make(map[int64]bool, len(aborted))
	for _, id := range aborted {
		ab[id] = true
	}
	var crashedIDs []int64
	for id, ts := range t.txns {
		if ts.status == statusCrashed {
			crashedIDs = append(crashedIDs, id)
		}
	}
	for _, id := range crashedIDs {
		if ab[id] {
			t.settleLocked(id, statusAborted)
		} else {
			t.settleLocked(id, statusCommitted)
		}
	}
	t.crashes = nil
}

// Verdicts returns a copy of the accumulated explainer verdicts.
func (t *Tracker) Verdicts() []Verdict {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Verdict(nil), t.verdicts...)
}

// TakeVerdicts drains and returns the accumulated explainer verdicts.
func (t *Tracker) TakeVerdicts() []Verdict {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.verdicts
	t.verdicts = nil
	return out
}
