// Package audit turns the engine's IFA guarantee from a post-crash
// assertion into a continuously monitored invariant. It maintains three
// surfaces, all bounded in memory and all fed from the existing
// observability hook set (the obs event stream plus the recovery layer's
// direct write/crash/recovered notifications):
//
//   - a per-transaction *audit trail*: a bounded span list per transaction
//     (begin, each update with its line and LSN, every migration /
//     replication / downgrade of a line it dirtied, the log forces that
//     covered those updates, commit/abort, and — if its node crashed — the
//     recovery outcome), with a ring of recently completed trails;
//
//   - an *online IFA auditor*: on every coherency transition that exposes a
//     dirty line to another node's failure domain it checks the
//     logging-before-migration invariant — a covering log record must exist,
//     stable or volatile per the protocol's policy — and raises a typed
//     Violation carrying the transaction's trail as evidence;
//
//   - *windowed time-series metrics*: a fixed ring of per-window
//     (simulated-time bucketed) counter/quantile snapshots with an anomaly
//     watchdog flagging threshold and ratio breaches (see timeseries.go).
//
// A nil *Auditor is fully inert: every method is nil-receiver safe and
// allocation-free, so the engine's hooks cost one pointer test when
// auditing is off.
package audit

import (
	"fmt"
	"sort"
	"sync"

	"smdb/internal/obs"
)

// Defaults for Config's zero values.
const (
	DefaultWindowNS   = int64(1e6) // 1ms of simulated time per window
	DefaultTrailSteps = 64
	DefaultTrailRing  = 128
	DefaultWindows    = 128
)

// maxViolations caps retained Violation records (the total keeps counting
// beyond it).
const maxViolations = 64

// Violation kinds.
const (
	// ViolationUnlogged: a dirty line left its writer's failure domain with
	// at least one covering update that had no log record at all — the
	// deferred-logging hazard the ablated protocol exists to exhibit.
	ViolationUnlogged = "unlogged-exposure"
	// ViolationUnforced: under a stable-LBM policy, a dirty line left its
	// writer's failure domain before the covering log records were stable.
	ViolationUnforced = "unforced-exposure"
)

// Config parameterizes an Auditor. Zero values select the defaults above.
type Config struct {
	// Stable requires *stable* log coverage at exposure time (the
	// StableEager / StableTriggered discipline under write-invalidate
	// coherency): the writer's home log must have been forced through the
	// covering LSN. When false, a volatile log record (LSN != 0) satisfies
	// the check — the Volatile LBM policies, the baseline, and the claimed
	// discipline of the ablated control.
	Stable bool
	// WindowNS is the time-series window width in simulated nanoseconds.
	WindowNS int64
	// TrailSteps caps the steps retained per transaction trail; later steps
	// are counted in Trail.DroppedSteps.
	TrailSteps int
	// TrailRing caps the ring of recently completed trails.
	TrailRing int
	// Windows caps the time-series ring (see timeseries.go).
	Windows int
}

func (c *Config) setDefaults() {
	if c.WindowNS <= 0 {
		c.WindowNS = DefaultWindowNS
	}
	if c.TrailSteps <= 0 {
		c.TrailSteps = DefaultTrailSteps
	}
	if c.TrailRing <= 0 {
		c.TrailRing = DefaultTrailRing
	}
	if c.Windows <= 0 {
		c.Windows = DefaultWindows
	}
}

// Step is one entry of a transaction's audit trail. From/To are node ids
// (-1 when not applicable); Line is -1 for lifecycle steps.
type Step struct {
	Sim  int64  `json:"sim"`
	Kind string `json:"kind"` // begin|update|migrate|replicate|downgrade|invalidate|log-force|lost-line|crash|violation|committed|aborted|recovery-aborted|recovery-committed
	Line int32  `json:"line"`
	From int32  `json:"from"`
	To   int32  `json:"to"`
	LSN  int64  `json:"lsn,omitempty"`
	Note string `json:"note,omitempty"`
}

// Trail is one transaction's audit trail.
type Trail struct {
	Txn          int64  `json:"txn"`
	Name         string `json:"name"`
	Node         int32  `json:"node"`
	Outcome      string `json:"outcome"` // active|committed|aborted|crashed|recovery-aborted|recovery-committed
	BeginSim     int64  `json:"begin_sim"`
	EndSim       int64  `json:"end_sim,omitempty"`
	Updates      int    `json:"updates"`
	Violations   int    `json:"violations,omitempty"`
	DroppedSteps int    `json:"dropped_steps,omitempty"`
	Steps        []Step `json:"steps"`
}

// Violation is one typed LBM-invariant breach, carrying the offending
// transaction's trail (snapshotted at violation time) as evidence.
type Violation struct {
	Kind   string `json:"kind"` // ViolationUnlogged | ViolationUnforced
	Txn    int64  `json:"txn"`
	Name   string `json:"name"`
	Node   int32  `json:"node"` // the writer's home node
	Line   int32  `json:"line"`
	Event  string `json:"event"` // migrate|replicate|downgrade
	To     int32  `json:"to"`    // the failure domain the data entered
	Sim    int64  `json:"sim"`
	LSN    int64  `json:"lsn"`    // highest covering log record (0 = none)
	Forced int64  `json:"forced"` // the home log's stable LSN at the time
	Detail string `json:"detail"`
	Trail  Trail  `json:"trail"`
}

// Summary is the headline census of an auditor's run.
type Summary struct {
	Enabled          bool           `json:"enabled"`
	Active           int            `json:"active_trails"`
	Completed        int            `json:"completed_trails"`
	Violations       int            `json:"violations"`
	ViolationsByKind map[string]int `json:"violations_by_kind,omitempty"`
	Windows          int            `json:"windows"`
	Anomalies        int            `json:"anomalies"`
}

// lineCover summarizes one transaction's log coverage on one line.
type lineCover struct {
	maxLSN   int64
	unlogged int
}

type exposeKey struct {
	line int32
	to   int32
}

// trailState is one live transaction's audit state.
type trailState struct {
	t          Trail
	cover      map[int32]*lineCover
	flagged    map[exposeKey]bool
	maxLSN     int64 // highest LSN of any of its updates
	coveredLSN int64 // highest force step already recorded for it
}

// Auditor is the online audit engine. Install it as (part of) the
// Observer's sink and call the direct Note* hooks from the recovery layer;
// all methods are safe for concurrent use and nil-receiver safe. Like the
// dependency tracker it may run with emitter locks held, so it never calls
// back into the engine.
type Auditor struct {
	cfg Config

	mu    sync.Mutex
	txns  map[int64]*trailState
	lines map[int32]map[int64]*trailState // line -> live writers
	// forced tracks each node's highest stable LSN, from WAL-force events.
	forced map[int32]int64
	// recovering suspends LBM checks between a crash and the end of restart
	// recovery: the invariant governs normal operation, and recovery's own
	// repair traffic (reinstalls, redo migrations) is CheckIFA's
	// jurisdiction, not the online auditor's.
	recovering bool

	done      []Trail // ring of completed trails
	doneNext  int
	doneTotal int

	viols      []Violation
	violTotal  int
	violByKind map[string]int

	ts timeSeries
}

// New creates an auditor.
func New(cfg Config) *Auditor {
	cfg.setDefaults()
	a := &Auditor{
		cfg:        cfg,
		txns:       make(map[int64]*trailState),
		lines:      make(map[int32]map[int64]*trailState),
		forced:     make(map[int32]int64),
		violByKind: make(map[string]int),
	}
	a.ts.init(cfg)
	return a
}

// Enabled reports whether auditing is live (false for a nil Auditor).
func (a *Auditor) Enabled() bool { return a != nil }

// tname renders a transaction id as the engine prints it (wal.TxnID packs
// the home node in the high 16 bits and a per-node sequence below).
func tname(id int64) string {
	return fmt.Sprintf("t%d.%d", uint64(id)>>48, uint64(id)&((1<<48)-1))
}

func (a *Auditor) ensureLocked(id int64, node int32, sim int64) *trailState {
	ts := a.txns[id]
	if ts == nil {
		ts = &trailState{
			t: Trail{
				Txn: id, Name: tname(id), Node: node,
				Outcome: "active", BeginSim: sim,
			},
			cover:   make(map[int32]*lineCover),
			flagged: make(map[exposeKey]bool),
		}
		ts.t.Steps = append(ts.t.Steps, Step{Sim: sim, Kind: "begin", Line: -1, From: -1, To: node})
		a.txns[id] = ts
	}
	return ts
}

func (a *Auditor) stepLocked(ts *trailState, s Step) {
	if len(ts.t.Steps) >= a.cfg.TrailSteps {
		ts.t.DroppedSteps++
		return
	}
	ts.t.Steps = append(ts.t.Steps, s)
}

// OnEvent is the obs.Sink hook: coherency transitions drive the exposure
// checks, WAL forces advance stable coverage, lifecycle events open and
// close trails, and everything feeds the time-series windows.
func (a *Auditor) OnEvent(e obs.Event) {
	if a == nil {
		return
	}
	a.mu.Lock()
	w := a.ts.tick(e.Sim)
	switch e.Kind {
	case obs.KindTxnBegin:
		a.ensureLocked(e.A, e.Node, e.Sim)
	case obs.KindTxnCommit:
		w.Commits++
		w.observeCommit(e.B)
		a.finishLocked(e.A, "committed", e.Sim)
	case obs.KindTxnAbort:
		w.Aborts++
		a.finishLocked(e.A, "aborted", e.Sim)
	case obs.KindMigrate:
		w.Migrations++
		a.exposeLocked(w, int32(e.A), e.Node, int32(e.B), "migrate", e.Sim)
	case obs.KindReplicate:
		w.Replications++
		a.exposeLocked(w, int32(e.A), e.Node, int32(e.B), "replicate", e.Sim)
	case obs.KindDowngrade:
		w.Downgrades++
		a.exposeLocked(w, int32(e.A), e.Node, int32(e.B), "downgrade", e.Sim)
	case obs.KindInvalidate:
		w.Invalidations++
		// Invalidation destroys the *other* copies — data does not enter a
		// new failure domain, so there is no LBM check; the writers' trails
		// still record the transition.
		for _, ts := range a.lines[int32(e.A)] {
			if ts.t.Outcome == "active" {
				a.stepLocked(ts, Step{Sim: e.Sim, Kind: "invalidate", Line: int32(e.A), From: -1, To: e.Node})
			}
		}
	case obs.KindWALForce:
		w.LogForces++
		a.noteForceLocked(e.Node, e.B, e.Sim)
	case obs.KindLineLockWait, obs.KindLockWait:
		w.LockStalls++
	case obs.KindCrash:
		w.Crashes++
	case obs.KindRecovery:
		w.RecoveryNS += e.Dur
	}
	a.mu.Unlock()
}

// exposeLocked runs the LBM check for one coherency transition that placed
// line's content in node to's cache: every live writer of the line must
// have covering log records (stable or volatile per Config.Stable).
// Violations are deduplicated per (transaction, line, destination).
func (a *Auditor) exposeLocked(w *windowCounters, line, to, from int32, kind string, sim int64) {
	writers := a.lines[line]
	if len(writers) == 0 {
		return
	}
	ids := make([]int64, 0, len(writers))
	for id := range writers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return uint64(ids[i]) < uint64(ids[j]) })
	for _, id := range ids {
		ts := writers[id]
		if ts.t.Outcome != "active" || ts.t.Node == to {
			continue
		}
		a.stepLocked(ts, Step{Sim: sim, Kind: kind, Line: line, From: from, To: to})
		if a.recovering {
			continue
		}
		cov := ts.cover[line]
		if cov == nil {
			continue
		}
		var vkind, detail string
		switch {
		case cov.unlogged > 0:
			vkind = ViolationUnlogged
			detail = fmt.Sprintf("%s of line %d to node %d: %d covering update(s) of %s have no log record",
				kind, line, to, cov.unlogged, ts.t.Name)
		case a.cfg.Stable && cov.maxLSN > a.forced[ts.t.Node]:
			vkind = ViolationUnforced
			detail = fmt.Sprintf("%s of line %d to node %d: %s's update LSN %d exceeds node %d's stable LSN %d",
				kind, line, to, ts.t.Name, cov.maxLSN, ts.t.Node, a.forced[ts.t.Node])
		default:
			continue
		}
		k := exposeKey{line: line, to: to}
		if ts.flagged[k] {
			continue
		}
		ts.flagged[k] = true
		ts.t.Violations++
		a.violTotal++
		a.violByKind[vkind]++
		w.Violations++
		if vkind == ViolationUnlogged {
			w.UnloggedExposures++
		}
		a.stepLocked(ts, Step{Sim: sim, Kind: "violation", Line: line, From: from, To: to, Note: vkind})
		if len(a.viols) < maxViolations {
			ev := ts.t
			ev.Steps = append([]Step(nil), ts.t.Steps...)
			a.viols = append(a.viols, Violation{
				Kind: vkind, Txn: id, Name: ts.t.Name, Node: ts.t.Node,
				Line: line, Event: kind, To: to, Sim: sim,
				LSN: cov.maxLSN, Forced: a.forced[ts.t.Node],
				Detail: detail, Trail: ev,
			})
		}
	}
}

// noteForceLocked advances a node's stable LSN and records a log-force step
// on every live trail homed there whose updates the force newly covered.
func (a *Auditor) noteForceLocked(node int32, stable, sim int64) {
	old := a.forced[node]
	if stable <= old {
		return
	}
	a.forced[node] = stable
	for _, ts := range a.txns {
		if ts.t.Node == node && ts.t.Outcome == "active" && ts.maxLSN > old && ts.maxLSN > ts.coveredLSN {
			a.stepLocked(ts, Step{Sim: sim, Kind: "log-force", Line: -1, From: -1, To: node, LSN: stable})
			ts.coveredLSN = stable
		}
	}
}

// finishLocked closes a trail on a normal commit/abort event. Crashed
// trails are closed by NoteRecovered, not by lifecycle events.
func (a *Auditor) finishLocked(id int64, outcome string, sim int64) {
	ts := a.txns[id]
	if ts == nil || ts.t.Outcome != "active" {
		return
	}
	a.closeLocked(ts, outcome, sim)
}

func (a *Auditor) closeLocked(ts *trailState, outcome string, sim int64) {
	ts.t.Outcome = outcome
	ts.t.EndSim = sim
	a.stepLocked(ts, Step{Sim: sim, Kind: outcome, Line: -1, From: -1, To: ts.t.Node})
	for line := range ts.cover {
		if ws := a.lines[line]; ws != nil {
			delete(ws, ts.t.Txn)
			if len(ws) == 0 {
				delete(a.lines, line)
			}
		}
	}
	delete(a.txns, ts.t.Txn)
	if len(a.done) < a.cfg.TrailRing {
		a.done = append(a.done, ts.t)
	} else {
		a.done[a.doneNext] = ts.t
		a.doneNext = (a.doneNext + 1) % a.cfg.TrailRing
	}
	a.doneTotal++
}

// NoteWrite records one update transaction txn applied on its home node.
// It is called from inside the update critical section — the line lock
// still pins the line — so the auditor knows about the uncommitted data
// before the line can move. The slot key is accepted for hook symmetry with
// the dependency tracker but not retained (the trail records line + LSN).
func (a *Auditor) NoteWrite(txn int64, node, line int32, slot, lsn, sim int64) {
	if a == nil {
		return
	}
	_ = slot
	a.mu.Lock()
	w := a.ts.tick(sim)
	w.Updates++
	ts := a.ensureLocked(txn, node, sim)
	ts.t.Updates++
	cov := ts.cover[line]
	if cov == nil {
		cov = &lineCover{}
		ts.cover[line] = cov
	}
	if lsn == 0 {
		cov.unlogged++
	} else {
		if lsn > cov.maxLSN {
			cov.maxLSN = lsn
		}
		if lsn > ts.maxLSN {
			ts.maxLSN = lsn
		}
	}
	ws := a.lines[line]
	if ws == nil {
		ws = make(map[int64]*trailState)
		a.lines[line] = ws
	}
	ws[txn] = ts
	a.stepLocked(ts, Step{Sim: sim, Kind: "update", Line: line, From: -1, To: node, LSN: lsn})
	a.mu.Unlock()
}

// NoteCrash folds a node-failure event into the trails: transactions homed
// on crashed nodes become crash victims (their trails stay open until
// NoteRecovered settles them), destroyed lines are recorded on their
// writers' trails, and LBM checks are suspended until recovery completes.
// It runs under the machine lock and never calls back into the engine.
func (a *Auditor) NoteCrash(crashed, lost []int32, sim int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ts.tick(sim)
	a.recovering = true
	var cmask uint64
	for _, n := range crashed {
		if n >= 0 && n < 64 {
			cmask |= 1 << uint(n)
		}
	}
	for _, ts := range a.txns {
		if ts.t.Outcome == "active" && ts.t.Node >= 0 && ts.t.Node < 64 && cmask&(1<<uint(ts.t.Node)) != 0 {
			ts.t.Outcome = "crashed"
			a.stepLocked(ts, Step{Sim: sim, Kind: "crash", Line: -1, From: -1, To: ts.t.Node})
		}
	}
	for _, ln := range lost {
		for _, ts := range a.lines[ln] {
			a.stepLocked(ts, Step{Sim: sim, Kind: "lost-line", Line: ln, From: -1, To: -1})
		}
	}
	a.mu.Unlock()
}

// NoteRecovered closes the crash episode: crash victims recovery aborted
// settle as recovery-aborted, the rest as recovery-committed (their commit
// records were stable — the crash only ate the acknowledgement), and LBM
// checking resumes.
func (a *Auditor) NoteRecovered(aborted []int64, sim int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ts.tick(sim)
	ab := make(map[int64]bool, len(aborted))
	for _, id := range aborted {
		ab[id] = true
	}
	var crashedIDs []int64
	for id, ts := range a.txns {
		if ts.t.Outcome == "crashed" {
			crashedIDs = append(crashedIDs, id)
		}
	}
	for _, id := range crashedIDs {
		outcome := "recovery-committed"
		if ab[id] {
			outcome = "recovery-aborted"
		}
		a.closeLocked(a.txns[id], outcome, sim)
	}
	a.recovering = false
	a.mu.Unlock()
}

// Trail returns a transaction's trail — live or recently completed — with
// its steps copied out.
func (a *Auditor) Trail(id int64) (Trail, bool) {
	if a == nil {
		return Trail{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.txns[id]; ts != nil {
		return copyTrail(ts.t), true
	}
	// Scan the completed ring newest-first so re-used ids resolve to the
	// most recent run.
	for i := 0; i < len(a.done); i++ {
		idx := (a.doneNext - 1 - i + 2*len(a.done)) % len(a.done)
		if len(a.done) < a.cfg.TrailRing {
			idx = len(a.done) - 1 - i
		}
		if a.done[idx].Txn == id {
			return copyTrail(a.done[idx]), true
		}
	}
	return Trail{}, false
}

func copyTrail(t Trail) Trail {
	t.Steps = append([]Step(nil), t.Steps...)
	return t
}

// activeTrailsLocked returns the live trails sorted by transaction id.
func (a *Auditor) activeTrailsLocked() []Trail {
	out := make([]Trail, 0, len(a.txns))
	for _, ts := range a.txns {
		out = append(out, copyTrail(ts.t))
	}
	sort.Slice(out, func(i, j int) bool { return uint64(out[i].Txn) < uint64(out[j].Txn) })
	return out
}

// recentTrailsLocked returns the completed ring newest-first.
func (a *Auditor) recentTrailsLocked() []Trail {
	out := make([]Trail, 0, len(a.done))
	for i := 0; i < len(a.done); i++ {
		var idx int
		if len(a.done) < a.cfg.TrailRing {
			idx = len(a.done) - 1 - i
		} else {
			idx = (a.doneNext - 1 - i + 2*len(a.done)) % len(a.done)
		}
		out = append(out, copyTrail(a.done[idx]))
	}
	return out
}

// Violations returns a copy of the retained violation records (bounded by
// maxViolations; ViolationCount keeps the full total).
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.viols...)
}

// ViolationCount returns the total violations raised (including any beyond
// the retention cap).
func (a *Auditor) ViolationCount() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.violTotal
}

// Summary returns the headline census.
func (a *Auditor) Summary() Summary {
	if a == nil {
		return Summary{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	byKind := make(map[string]int, len(a.violByKind))
	for k, v := range a.violByKind {
		byKind[k] = v
	}
	return Summary{
		Enabled:          true,
		Active:           len(a.txns),
		Completed:        a.doneTotal,
		Violations:       a.violTotal,
		ViolationsByKind: byKind,
		Windows:          a.ts.windowCount(),
		Anomalies:        a.ts.anomTotal,
	}
}
