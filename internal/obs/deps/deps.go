// Package deps holds the engine's residency model — which failure domain
// currently holds which transaction's uncommitted data — and the first judge
// over it, the live recovery-dependency graph of the paper's section 3:
// cache-coherency traffic silently places a transaction's uncommitted updates
// in other nodes' failure domains, and the LBM policies exist precisely to
// neutralize those hidden dependencies. The Tracker consumes the engine's
// coherency event stream (migrations, replications, downgrades,
// invalidations, installs, discards, trigger fires) plus transaction
// lifecycle and WAL-force events and the recovery layer's direct
// write/crash/recovered calls, and maintains:
//
//   - per transaction, its writes with their log coverage per line, and its
//     *node-dependency set*: every node that currently caches a line carrying
//     the transaction's uncommitted data, with the coherency event that
//     exposed it and the covering log record's LSN;
//   - per cache line, its holders, its live writers, and its bounded
//     *residency history*: the sequence of installs, migrations,
//     replications, and losses, so a post-mortem can cite the concrete
//     transition that moved data into a failure domain;
//   - per node, the stable LSN of its log; and the open crash episodes.
//
// That fold is written here once. Three consumers read it in this package:
// the IFA explainer (verdict.go) renders per-transaction verdicts at crash
// time; the exporters (export.go) serve the graph as DOT and JSON for the
// live introspection server and the crash flight recorder; and the
// dependency census (export.go) feeds experiment E17's policy comparison. A
// fourth, the online auditor (internal/obs/audit), lives outside it: the
// tracker narrates to it (Reader), under its own lock and in a deterministic
// order, every raw event and everything that happens to each transaction, so
// the second judge keeps no residency state of its own.
//
// A nil *Tracker is fully inert: every method is nil-receiver safe, so
// engine hooks cost a single pointer test when dependency tracking is off.
package deps

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"smdb/internal/obs"
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
}

// lineCover is one transaction's log coverage of one line over every write
// it was noted making there, not the latest per slot (a later logged write to
// a slot does not log the earlier one). Edges and the auditor's LBM check
// read the same figure.
type lineCover struct {
	maxLSN   int64
	unlogged int
}

type edgeKey struct {
	to   int32
	line int32
}

type txnState struct {
	id       int64
	node     int32
	status   txnStatus
	writes   map[int64]write     // slot key -> latest write (the explainer's evidence)
	cover    map[int32]lineCover // line -> coverage over every write
	maxLSN   int64               // highest LSN of any of its updates
	forceLSN int64               // stable LSN of the last force narrated as covering it
	edges    []Edge
	edgeSet  map[edgeKey]bool
	depNodes uint64 // distinct nodes ever depended on
	unlogged bool   // ever exposed an unlogged update
}

type lineState struct {
	holders uint64
	history []ResidencyStep
	writers map[int64]*txnState // unsettled txns with uncommitted data on this line
}

func (l *lineState) step(s ResidencyStep) {
	if len(l.history) >= historyCap {
		copy(l.history, l.history[1:])
		l.history = l.history[:historyCap-1]
	}
	l.history = append(l.history, s)
}

// NoteClass says what a Note means to its transaction.
type NoteClass uint8

const (
	// Step is something that happened to it: one of the Note* kinds below.
	Step NoteClass = iota
	// Exposure is a line carrying its uncommitted data entering a node other
	// than its home. Kind names the coherency event (migrate, replicate,
	// downgrade); CoverLSN, Unlogged and StableLSN are filled.
	Exposure
	// Outcome ends it: committed or aborted, prefixed recovery- when restart
	// recovery settled a crash victim.
	Outcome
	// Episode is about no transaction: a crash episode opens (Kind crash,
	// before the crash's other notes) or closes (Kind recovered, after
	// recovery's).
	Episode
)

// Kinds of Step notes.
const (
	NoteBegin      = "begin"
	NoteUpdate     = "update"
	NoteInvalidate = "invalidate"
	NoteForce      = "log-force"
	NoteCrash      = "crash"
	NoteLostLine   = "lost-line"
	NoteRecovered  = "recovered"
)

// Note is one thing the model saw happen, to one transaction unless its
// class is Episode. Line, From and To are -1 where they do not apply; a
// lifecycle note's To is the home node.
type Note struct {
	Class          NoteClass
	Kind           string
	Txn            int64
	Home           int32
	Sim            int64
	Line, From, To int32
	LSN            int64 // update: its log record, 0 = none; log-force: the new stable LSN
	// Exposure only: the transaction's coverage of Line (highest LSN, writes
	// never logged) and its home log's stable LSN, all at this instant.
	CoverLSN  int64
	Unlogged  int
	StableLSN int64
}

// Name renders the note's transaction as the engine prints it.
func (n Note) Name() string { return tname(n.Txn) }

// Reader is the one consumer the model narrates to (the online auditor).
// Calls come with the tracker's lock held, in the order things happened, so
// a reader needs no residency state of its own; it must not call back into
// the tracker or the engine.
type Reader interface {
	// Event is every engine event, before the notes it causes.
	Event(e obs.Event)
	// Note is one thing that happened; it carries the simulated time of the
	// event or hook call that caused it.
	Note(n Note)
}

// Tracker is the residency model and the dependency-graph judge on top of
// it. Feed it events by installing it as the Observer's sink
// (obs.Observer.SetSink) and by calling the direct Note* hooks from the
// recovery layer (writes and crashes carry context the event stream alone
// does not). All methods are safe for concurrent use and nil-receiver safe.
type Tracker struct {
	// echo, when non-nil, receives a KindDepEdge instant for every edge
	// discovered, so Chrome traces render the dependency structure inline.
	echo *obs.Observer

	mu       sync.Mutex
	reader   Reader
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

// Narrate makes r the tracker's reader, replacing any other. What happened
// before the call is not replayed.
func (t *Tracker) Narrate(r Reader) {
	t.mu.Lock()
	t.reader = r
	t.mu.Unlock()
}

// Enabled reports whether tracking is live (false for a nil Tracker).
func (t *Tracker) Enabled() bool { return t != nil }

func bit(n int32) uint64 {
	if n < 0 || n >= 64 {
		return 0
	}
	return 1 << uint(n)
}

// tname renders a transaction id as the engine prints it (wal.TxnID packs
// the home node in the high 16 bits and a per-node sequence below).
func tname(id int64) string {
	return fmt.Sprintf("t%d.%d", uint64(id)>>48, uint64(id)&((1<<48)-1))
}

func (t *Tracker) line(id int32) *lineState {
	l := t.lines[id]
	if l == nil {
		l = &lineState{writers: make(map[int64]*txnState)}
		t.lines[id] = l
	}
	return l
}

// noteLocked narrates a lifecycle note about ts (no line, To = home) after
// edit, if any, has filled in what the kind adds.
func (t *Tracker) noteLocked(ts *txnState, class NoteClass, kind string, sim int64, edit func(*Note)) {
	if t.reader == nil {
		return
	}
	n := Note{Class: class, Kind: kind, Txn: ts.id, Home: ts.node, Sim: sim, Line: -1, From: -1, To: ts.node}
	if edit != nil {
		edit(&n)
	}
	t.reader.Note(n)
}

// episodeLocked narrates one end of a crash episode.
func (t *Tracker) episodeLocked(kind string, sim int64) {
	if t.reader != nil {
		t.reader.Note(Note{Class: Episode, Kind: kind, Sim: sim})
	}
}

func (t *Tracker) ensureTxnLocked(id int64, node int32, sim int64) *txnState {
	ts := t.txns[id]
	if ts == nil {
		ts = &txnState{
			id: id, node: node, status: statusActive,
			writes:  make(map[int64]write),
			cover:   make(map[int32]lineCover),
			edgeSet: make(map[edgeKey]bool),
		}
		t.txns[id] = ts
		t.noteLocked(ts, Step, NoteBegin, sim, nil)
	}
	return ts
}

// writersLocked returns the unsettled transactions with uncommitted data on
// l in id order, so whatever is done per writer — edges, echoes, notes —
// happens in a deterministic order.
func (t *Tracker) writersLocked(l *lineState) []*txnState {
	if len(l.writers) == 0 {
		return nil
	}
	out := make([]*txnState, 0, len(l.writers))
	for _, ts := range l.writers {
		out = append(out, ts)
	}
	sortTxns(out)
	return out
}

func sortTxns(ts []*txnState) {
	sort.Slice(ts, func(i, j int) bool { return uint64(ts[i].id) < uint64(ts[j].id) })
}

// kindBroadcast names the edges a write-broadcast store creates: the data
// reaches the line's sharers with the write itself, not by a later coherency
// event, so the write's own update note is all the reader hears of it.
const kindBroadcast = "broadcast"

// pendEdge is a dep-edge echo deferred until the tracker lock is released.
type pendEdge struct {
	node int32
	sim  int64
	txn  int64
	b    int64
}

func (t *Tracker) echoEdges(pend []pendEdge) {
	for _, p := range pend {
		t.echo.Instant(obs.KindDepEdge, p.node, p.sim, p.txn, p.b)
	}
}

// OnEvent is the obs.Sink hook: it folds one engine event into the model.
// It may run with emitter locks (machine, wal) held, so neither it nor the
// reader calls back into the engine; dep-edge echoes go only to the
// Observer, after the tracker lock is released.
func (t *Tracker) OnEvent(e obs.Event) {
	if t == nil {
		return
	}
	switch e.Kind {
	case obs.KindDepEdge, obs.KindOpStart, obs.KindOpEnd, obs.KindTxnWait, obs.KindProgress:
		return // its own echoes, and the waterfall's and debt's accounting
	}
	var pend []pendEdge
	t.mu.Lock()
	if t.reader != nil {
		t.reader.Event(e)
	}
	switch e.Kind {
	case obs.KindMigrate, obs.KindDowngrade, obs.KindReplicate:
		// A = line, B = a previous holder, node = who gained the content: as
		// the new exclusive holder (migrate), or as one more sharer beside a
		// former exclusive holder (downgrade) or the other sharers.
		line, kind := int32(e.A), e.Kind.String()
		l := t.line(line)
		l.step(ResidencyStep{Sim: e.Sim, Kind: kind, From: int32(e.B), To: e.Node})
		if e.Kind == obs.KindMigrate {
			l.holders = bit(e.Node)
		} else {
			l.holders |= bit(e.Node)
		}
		pend = t.exposeLocked(l, line, int32(e.B), e.Node, kind, e.Sim)
	case obs.KindInvalidate, obs.KindInstall:
		// A = line, node = the new sole holder: a writer destroying the
		// other copies, or fresh content from stable storage. Invalidation
		// moves no data into a new failure domain, so it creates no edge;
		// the line's writers are still told.
		line := int32(e.A)
		l := t.line(line)
		l.step(ResidencyStep{Sim: e.Sim, Kind: e.Kind.String(), From: -1, To: e.Node})
		l.holders = bit(e.Node)
		if e.Kind == obs.KindInvalidate && t.reader != nil {
			for _, ts := range t.writersLocked(l) {
				if ts.status == statusActive {
					t.noteLocked(ts, Step, NoteInvalidate, e.Sim, func(n *Note) { n.Line = line })
				}
			}
		}
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
		if old := t.forced[e.Node]; e.B > old {
			t.forced[e.Node] = e.B
			t.narrateForceLocked(e.Node, old, e.B, e.Sim)
		}
	case obs.KindTxnBegin:
		t.ensureTxnLocked(e.A, e.Node, e.Sim)
	case obs.KindTxnCommit:
		t.settleLocked(t.txns[e.A], statusCommitted, "", e.Sim)
	case obs.KindTxnAbort:
		t.settleLocked(t.txns[e.A], statusAborted, "", e.Sim)
	}
	t.mu.Unlock()
	t.echoEdges(pend)
}

// exposeLocked records that line's content is now in node to's cache: every
// active writer of the line homed elsewhere has uncommitted data in to's
// failure domain. Each is told, with its log coverage of the line as it
// stands, and gains a dependency edge, once per (transaction, node, line).
// Returns the dep-edge echoes to emit once the lock is released.
func (t *Tracker) exposeLocked(l *lineState, line, from, to int32, kind string, sim int64) []pendEdge {
	var pend []pendEdge
	for _, ts := range t.writersLocked(l) {
		if ts.status != statusActive || ts.node == to {
			continue
		}
		cov := ts.cover[line]
		if kind != kindBroadcast {
			t.noteLocked(ts, Exposure, kind, sim, func(n *Note) {
				n.Line, n.From, n.To = line, from, to
				n.CoverLSN, n.Unlogged, n.StableLSN = cov.maxLSN, cov.unlogged, t.forced[ts.node]
			})
		}
		k := edgeKey{to: to, line: line}
		if ts.edgeSet[k] {
			continue
		}
		ts.edgeSet[k] = true
		ts.edges = append(ts.edges, Edge{
			Txn: ts.id, From: ts.node, To: to, Line: line,
			Kind: kind, Sim: sim, LSN: cov.maxLSN, Unlogged: cov.unlogged > 0,
		})
		ts.depNodes |= bit(to)
		t.edgesTotal++
		if cov.unlogged > 0 {
			t.unloggedTotal++
			ts.unlogged = true
		}
		if t.echo != nil {
			pend = append(pend, pendEdge{
				node: ts.node, sim: sim, txn: ts.id,
				b: int64(to)<<32 | int64(uint32(line)),
			})
		}
	}
	return pend
}

// narrateForceLocked tells every active transaction homed on node whose
// updates the force from old to stable newly reached. Only a reader wants
// to know, so without one the walk is skipped.
func (t *Tracker) narrateForceLocked(node int32, old, stable, sim int64) {
	if t.reader == nil {
		return
	}
	for _, ts := range t.txns {
		if ts.node == node && ts.status == statusActive && ts.maxLSN > old && ts.maxLSN > ts.forceLSN {
			ts.forceLSN = stable
			t.noteLocked(ts, Step, NoteForce, sim, func(n *Note) { n.LSN = stable })
		}
	}
}

// settleLocked finishes a transaction (nil: one the tracker never met): its
// dep-set size joins the census, it leaves the live graph, and the reader
// hears the outcome — status's name behind prefix.
func (t *Tracker) settleLocked(ts *txnState, status txnStatus, prefix string, sim int64) {
	if ts == nil {
		return
	}
	ts.status = status
	size := bits.OnesCount64(ts.depNodes)
	t.settledTxns++
	t.settledSizes[size]++
	if size > 0 {
		t.settledWithDeps++
	}
	if ts.unlogged {
		t.settledUnlogged++
	}
	for line := range ts.cover {
		if l := t.lines[line]; l != nil {
			delete(l.writers, ts.id)
		}
	}
	delete(t.txns, ts.id)
	t.noteLocked(ts, Outcome, prefix+status.String(), sim, nil)
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
	ts.writes[slot] = write{line: line, slot: slot, lsn: lsn}
	cov := ts.cover[line]
	if lsn == 0 {
		cov.unlogged++
	} else {
		cov.maxLSN = max(cov.maxLSN, lsn)
		ts.maxLSN = max(ts.maxLSN, lsn)
	}
	ts.cover[line] = cov
	l := t.line(line)
	l.writers[txn] = ts
	l.holders |= bit(node)
	t.noteLocked(ts, Step, NoteUpdate, sim, func(n *Note) { n.Line, n.LSN = line, lsn })
	for n := int32(0); n < 64; n++ {
		if n != node && l.holders&bit(n) != 0 {
			pend = append(pend, t.exposeLocked(l, line, node, n, kindBroadcast, sim)...)
		}
	}
	t.mu.Unlock()
	t.echoEdges(pend)
}

// TxnRef identifies one in-flight transaction the engine knows about at a
// crash instant: the victim list the recovery layer hands to NoteCrash so
// neither judge's census can lag the engine's.
type TxnRef struct {
	ID   int64
	Node int32
}

// NoteCrash folds a node-failure event into the model: the crashed nodes'
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
	t.episodeLocked(NoteCrash, sim)
	for _, v := range victims {
		t.ensureTxnLocked(v.ID, v.Node, sim)
	}
	var cmask uint64
	for _, n := range crashed {
		cmask |= bit(n)
	}
	var newly []*txnState
	for _, ts := range t.txns {
		if ts.status == statusActive && cmask&bit(ts.node) != 0 {
			ts.status = statusCrashed
			newly = append(newly, ts)
		}
	}
	sortTxns(newly)
	for _, ts := range newly {
		t.noteLocked(ts, Step, NoteCrash, sim, nil)
	}
	lostSet := make(map[int32]bool, len(lost))
	for _, ln := range lost {
		lostSet[ln] = true
		l := t.line(ln)
		l.holders = 0
		l.step(ResidencyStep{Sim: sim, Kind: "lost", From: -1, To: -1})
		if t.reader != nil {
			for _, ts := range t.writersLocked(l) {
				t.noteLocked(ts, Step, NoteLostLine, sim, func(n *Note) { n.Line, n.To = ln, -1 })
			}
		}
	}
	for _, l := range t.lines {
		l.holders &^= cmask
	}
	crash := Crash{Sim: sim, Nodes: append([]int32(nil), crashed...), Lost: append([]int32(nil), lost...)}
	t.crashes = append(t.crashes, crash)
	t.verdicts = append(t.verdicts, t.explainLocked(crash, lostSet, newly)...)
}

// NoteRecovered marks the end of a successful restart recovery: crash
// victims recovery aborted settle as aborted, the remaining victims settle
// as committed (their commit records were stable — the crash only ate the
// acknowledgement), and the crash episode closes. Accumulated verdicts stay
// until TakeVerdicts drains them.
func (t *Tracker) NoteRecovered(aborted []int64, sim int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ab := make(map[int64]bool, len(aborted))
	for _, id := range aborted {
		ab[id] = true
	}
	var victims []*txnState
	for _, ts := range t.txns {
		if ts.status == statusCrashed {
			victims = append(victims, ts)
		}
	}
	sortTxns(victims)
	for _, ts := range victims {
		status := statusCommitted
		if ab[ts.id] {
			status = statusAborted
		}
		t.settleLocked(ts, status, "recovery-", sim)
	}
	t.crashes = nil
	t.episodeLocked(NoteRecovered, sim)
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
