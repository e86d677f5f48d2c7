// Package audit turns the engine's IFA guarantee from a post-crash
// assertion into a continuously monitored invariant. It is the second judge
// over the residency model of internal/obs/deps: the model folds the engine's
// events and the recovery layer's write/crash/recovered calls into "which
// failure domain holds which transaction's uncommitted data" once, and tells
// the auditor what that did to each transaction. From that narration the
// auditor maintains three surfaces, all bounded in memory:
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
// allocation-free.
package audit

import (
	"fmt"
	"sort"
	"sync"

	"smdb/internal/obs"
	"smdb/internal/obs/deps"
)

// DefaultWindowNS is the time-series window width a zero Config.WindowNS
// selects: 1ms of simulated time.
const DefaultWindowNS = int64(1e6)

// The auditor's bounds.
const (
	// trailSteps caps the steps retained per transaction trail; later steps
	// are counted in Trail.DroppedSteps. The judges' cross-checks read whole
	// trails: E17's schedule needs 256 steps, deps' seeded random stream
	// 450.
	trailSteps = 512
	// trailRing caps the ring of recently completed trails.
	trailRing = 128
	// windows is how many time-series windows stay resident.
	windows = 128
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

// Config parameterizes an Auditor.
type Config struct {
	// Stable requires *stable* log coverage at exposure time (the
	// StableEager / StableTriggered discipline under write-invalidate
	// coherency): the writer's home log must have been forced through the
	// covering LSN. When false, a volatile log record (LSN != 0) satisfies
	// the check — the Volatile LBM policies, the baseline, and the claimed
	// discipline of the ablated control.
	Stable bool
	// WindowNS is the time-series window width in simulated nanoseconds
	// (<= 0 selects DefaultWindowNS).
	WindowNS int64
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

type exposeKey struct {
	line int32
	to   int32
}

// trailState is one live transaction's trail and the exposures already
// flagged on it.
type trailState struct {
	t       Trail
	flagged map[exposeKey]bool
}

// Auditor is the online audit engine: a reader of the residency model
// (deps.Tracker), which tells it, under the model's lock, every engine event
// and everything that happens to each transaction. It keeps no residency
// state of its own — only the trails, the LBM check's dedupe and suspension,
// the violations and the time series. All methods are safe for concurrent
// use and nil-receiver safe. It runs with the model's and the emitter's
// locks held, so it never calls back into either.
type Auditor struct {
	cfg   Config
	model *deps.Tracker

	mu   sync.Mutex
	live map[int64]*trailState
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

	ts *timeSeries
}

// New creates an auditor reading model, which must have no other reader.
// Feed the model (events through its OnEvent, the recovery layer's
// write/crash/recovered calls through its Note* hooks); the auditor follows.
func New(model *deps.Tracker, cfg Config) *Auditor {
	if cfg.WindowNS <= 0 {
		cfg.WindowNS = DefaultWindowNS
	}
	a := &Auditor{
		cfg:        cfg,
		model:      model,
		live:       make(map[int64]*trailState),
		violByKind: make(map[string]int),
		ts:         newTimeSeries(cfg.WindowNS),
	}
	model.Narrate(a)
	return a
}

// Enabled reports whether auditing is live (false for a nil Auditor).
func (a *Auditor) Enabled() bool { return a != nil }

// Model returns the residency model the auditor reads (nil for a nil
// Auditor).
func (a *Auditor) Model() *deps.Tracker {
	if a == nil {
		return nil
	}
	return a.model
}

func (a *Auditor) stepLocked(ts *trailState, s Step) {
	if len(ts.t.Steps) >= trailSteps {
		ts.t.DroppedSteps++
		return
	}
	ts.t.Steps = append(ts.t.Steps, s)
}

// Event is the deps.Reader hook for raw engine events: all of them feed the
// time-series windows (a straggler whose window was evicted is dropped).
func (a *Auditor) Event(e obs.Event) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if w := a.ts.ring.At(e.Sim); w != nil {
		w.count(e)
	}
	a.mu.Unlock()
}

// Note is the deps.Reader hook for what happened to one transaction: a
// begin opens its trail, every note becomes a step on it, an exposure runs
// the LBM check, and an outcome closes it into the ring. The two ends of a
// crash episode, which are about no transaction, switch the check off and
// on.
func (a *Auditor) Note(n deps.Note) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	w := a.ts.ring.At(n.Sim) // nil for a straggler whose window was evicted
	if n.Class == deps.Episode {
		a.recovering = n.Kind == deps.NoteCrash
		return
	}
	ts := a.live[n.Txn]
	if n.Kind == deps.NoteBegin {
		ts = &trailState{
			t: Trail{
				Txn: n.Txn, Name: n.Name(), Node: n.Home,
				Outcome: "active", BeginSim: n.Sim,
			},
			flagged: make(map[exposeKey]bool),
		}
		a.live[n.Txn] = ts
	}
	if ts == nil {
		return // began before the auditor was listening
	}
	a.stepLocked(ts, Step{Sim: n.Sim, Kind: n.Kind, Line: n.Line, From: n.From, To: n.To, LSN: n.LSN})
	switch {
	case n.Kind == deps.NoteUpdate:
		if w != nil {
			w.Updates++
		}
		ts.t.Updates++
	case n.Kind == deps.NoteCrash:
		// The trail stays open until recovery settles the victim.
		ts.t.Outcome = "crashed"
	case n.Class == deps.Exposure && !a.recovering:
		a.checkLocked(w, ts, n)
	case n.Class == deps.Outcome:
		ts.t.Outcome = n.Kind
		ts.t.EndSim = n.Sim
		delete(a.live, n.Txn)
		if len(a.done) < trailRing {
			a.done = append(a.done, ts.t)
		} else {
			a.done[a.doneNext] = ts.t
			a.doneNext = (a.doneNext + 1) % trailRing
		}
		a.doneTotal++
	}
}

// checkLocked runs the LBM check for one exposure: the transaction must
// have covering log records for the line (stable or volatile per
// Config.Stable). Violations are deduplicated per (transaction, line,
// destination).
func (a *Auditor) checkLocked(w *windowCounters, ts *trailState, n deps.Note) {
	var vkind, detail string
	switch {
	case n.Unlogged > 0:
		vkind = ViolationUnlogged
		detail = fmt.Sprintf("%s of line %d to node %d: %d covering update(s) of %s have no log record",
			n.Kind, n.Line, n.To, n.Unlogged, ts.t.Name)
	case a.cfg.Stable && n.CoverLSN > n.StableLSN:
		vkind = ViolationUnforced
		detail = fmt.Sprintf("%s of line %d to node %d: %s's update LSN %d exceeds node %d's stable LSN %d",
			n.Kind, n.Line, n.To, ts.t.Name, n.CoverLSN, n.Home, n.StableLSN)
	default:
		return
	}
	k := exposeKey{line: n.Line, to: n.To}
	if ts.flagged[k] {
		return
	}
	ts.flagged[k] = true
	ts.t.Violations++
	a.violTotal++
	a.violByKind[vkind]++
	if w != nil {
		w.Violations++
		if vkind == ViolationUnlogged {
			w.UnloggedExposures++
		}
	}
	a.stepLocked(ts, Step{Sim: n.Sim, Kind: "violation", Line: n.Line, From: n.From, To: n.To, Note: vkind})
	if len(a.viols) < maxViolations {
		a.viols = append(a.viols, Violation{
			Kind: vkind, Txn: n.Txn, Name: ts.t.Name, Node: n.Home,
			Line: n.Line, Event: n.Kind, To: n.To, Sim: n.Sim,
			LSN: n.CoverLSN, Forced: n.StableLSN,
			Detail: detail, Trail: copyTrail(ts.t),
		})
	}
}

// Trail returns a transaction's trail — live or recently completed — with
// its steps copied out.
func (a *Auditor) Trail(id int64) (Trail, bool) {
	if a == nil {
		return Trail{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.live[id]; ts != nil {
		return copyTrail(ts.t), true
	}
	// Scan the completed ring newest-first so re-used ids resolve to the
	// most recent run.
	for i := range a.done {
		if t := a.doneAt(i); t.Txn == id {
			return copyTrail(*t), true
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
	out := make([]Trail, 0, len(a.live))
	for _, ts := range a.live {
		out = append(out, copyTrail(ts.t))
	}
	sort.Slice(out, func(i, j int) bool { return uint64(out[i].Txn) < uint64(out[j].Txn) })
	return out
}

// doneAt returns the i-th newest completed trail. doneNext, the slot the
// next completion overwrites, stays 0 until the ring is full, so one formula
// serves the filling ring and the wrapped one.
func (a *Auditor) doneAt(i int) *Trail {
	n := len(a.done)
	return &a.done[(a.doneNext-1-i+2*n)%n]
}

// recentTrailsLocked returns the completed ring newest-first.
func (a *Auditor) recentTrailsLocked() []Trail {
	out := make([]Trail, 0, len(a.done))
	for i := range a.done {
		out = append(out, copyTrail(*a.doneAt(i)))
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
		Active:           len(a.live),
		Completed:        a.doneTotal,
		Violations:       a.violTotal,
		ViolationsByKind: byKind,
		Windows:          a.ts.ring.Len(),
		Anomalies:        a.ts.anomalies.Total(),
	}
}
