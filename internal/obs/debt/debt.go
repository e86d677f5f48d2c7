// Package debt implements the live recovery-debt tracker: a continuously
// maintained answer to "if a node crashed right now, how much replay work —
// and how much simulated time — would restart recovery cost?".
//
// The tracker folds the engine's event stream — it is a sink of the attached
// hook set, like the residency model: WAL appends, forces and discards, node
// crashes, pages turning dirty (page-dirty) and clean again (page-flush),
// and restart recovery's opening progress event and closing recovery span.
// It keeps, per node and globally:
//
//   - log records and bytes accumulated since the node's last safe point
//     (min of the last checkpoint record and one below the oldest active
//     transaction's first record). DB.Checkpoint's discard horizon differs
//     in one anchor: for a live transaction it uses the log position noted at
//     Begin, which sits at or below the transaction's first record (other
//     transactions may append in between), so the safe point can lie above
//     what a checkpoint would discard through, never below it;
//   - the oldest-active-transaction anchor and the redo/undo spans it
//     implies (redo scans start at the last checkpoint; undo walks back to
//     the oldest in-flight transaction's first record);
//   - the dirty-page set (pages whose cached lines diverge from disk — the
//     redo working set a crash would have to reinstall);
//   - each node's estimated recovery time: the simulated time restart
//     recovery would take if that node crashed now (see Config and
//     NodeSnapshot.EstNS), and globally the largest of them.
//
// A completed recovery re-anchors every node's safe point at its current end
// of log, so debt drops to zero and re-accumulates from there, and
// contributes one MTTR sample (wall and simulated). The re-anchor is the
// tracker's view, not the engine's: Recover writes no checkpoint record, so
// the next recovery still replays from the last checkpoint, every earlier
// recovery's records included (on E24's schedule under Redo All, redo
// applied goes 114, 231, 348 over three cycles), while the tracker reports
// the debt as zero.
//
// Like the rest of the observability stack the tracker is nil-receiver
// safe: every method on a nil *Tracker is a no-op that performs no
// allocation. OnEvent runs under the emitting layer's locks (the WAL mutex,
// the buffer manager's, a machine stripe inside pre-transition callbacks);
// the tracker only ever takes its own mutex and never calls back out.
//
// internal/obs serves the tracker's documents through the obs.DebtSource
// interface and so must not import this package.
package debt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"smdb/internal/obs"
)

// Record-type codes mirrored from internal/wal, so the tracker depends on no
// engine package; only the ones the tracker classifies specially are named.
const (
	typeCommit      = 2
	typeAbort       = 3
	typeCLR         = 4
	typeLockRelease = 6
	typeCheckpoint  = 9
	maxRecordType   = 16
)

// The tracker's windows and watchdog.
const (
	// windowNS is the windowed time-series width in simulated time.
	windowNS = int64(time.Millisecond)
	// windows sizes the window ring the JSON doc reads (obs.WindowRing):
	// the live window and the 64 ids before it.
	windows = 65
	// growthWindows is how many consecutive closed windows of strictly
	// rising debt with no safe-point advance trip the unbounded-growth
	// watchdog.
	growthWindows = 4
	// growthFloor is the minimum global debt (records) before the growth
	// watchdog may fire, so tiny idle systems do not alarm.
	growthFloor = 256
	// ewmaAlpha weights new MTTR samples.
	ewmaAlpha = 0.5
)

// Config sizes a Tracker and prices its recovery-time estimate in the
// engine's simulated costs (a zero price prices nothing). Recovery's probe
// reads every dirty page back and its settle step forces the survivors'
// unforced logs, in parallel; the rest costs microseconds against those
// milliseconds and is left out (DESIGN.md §13, E24).
type Config struct {
	// DiskReadNS is the price of reading one page from the stable database
	// (machine.CostModel.DiskRead).
	DiskReadNS int64
	// LogForceNS is the price of one log force (machine.CostModel.LogForce,
	// or LogForceNVRAM when the engine's log is NVRAM).
	LogForceNS int64
}

// nodeState is one node's debt accounting.
type nodeState struct {
	// first is the oldest retained LSN (DiscardThrough advances it); last
	// is the highest appended LSN; forced the highest stable LSN.
	first, last, forced int64
	// lastCkpt is the LSN of the node's most recent checkpoint record.
	lastCkpt int64
	// safeOverride is the recovery-established safe point: a completed
	// recovery re-anchors the node here (its end of log at the time), the
	// fuzzy end-of-restart checkpoint.
	safeOverride int64
	// cum[i] is the cumulative appended bytes through LSN first+i, so the
	// bytes above any anchor are two lookups.
	cum []int64
	// active maps in-flight transactions (first record seen, no
	// commit/abort yet) to their first LSN — the per-txn truncation
	// low-water input.
	active map[uint64]int64

	// Lifetime counters.
	appends, appendBytes   int64
	forces, crashes, drops int64
	typeCount, typeBytes   [maxRecordType]int64
	unattributed           int64
}

// anchorsLocked returns the node's checkpoint anchor, oldest-active anchor,
// and effective safe point (all LSNs; the safe point is the highest LSN
// whose records are not debt).
func (n *nodeState) anchorsLocked() (ckpt, oldestActive, safe int64) {
	ckpt = n.lastCkpt
	oldestActive = 0
	for _, first := range n.active {
		if oldestActive == 0 || first < oldestActive {
			oldestActive = first
		}
	}
	txnAnchor := n.last
	if oldestActive > 0 {
		txnAnchor = oldestActive - 1
	}
	safe = ckpt
	if txnAnchor < safe {
		safe = txnAnchor
	}
	if n.safeOverride > safe {
		safe = n.safeOverride
	}
	if min := n.first - 1; safe < min {
		safe = min
	}
	if safe > n.last {
		safe = n.last
	}
	return ckpt, oldestActive, safe
}

// bytesAboveLocked returns the appended bytes of records with LSN > lsn
// still retained by the node.
func (n *nodeState) bytesAboveLocked(lsn int64) int64 {
	if n.last < n.first || len(n.cum) == 0 {
		return 0
	}
	total := n.cum[len(n.cum)-1]
	if lsn < n.first {
		return total
	}
	idx := lsn - n.first
	if idx >= int64(len(n.cum)) {
		return 0
	}
	return total - n.cum[idx]
}

// debtLocked returns the node's debt records and bytes above its safe point.
func (n *nodeState) debtLocked() (records, bytes int64) {
	_, _, safe := n.anchorsLocked()
	if n.last <= safe {
		return 0, 0
	}
	return n.last - safe, n.bytesAboveLocked(safe)
}

// window is one closed (or live) time-series window.
type window struct {
	ID      int64 `json:"id"`       // sim / windowNS, filled in on export
	Appends int64 `json:"appends"`  // records appended in the window
	Bytes   int64 `json:"bytes"`    // bytes appended in the window
	Forces  int64 `json:"forces"`   // physical log forces
	SafeAdv int64 `json:"safe_adv"` // safe-point advances (ckpt, discard, recovery)
	EndDebt int64 `json:"end_debt"` // global debt records at window close
}

// recoverySample is one completed (or failed) recovery's accounting.
type recoverySample struct {
	OK        bool  `json:"ok"`
	WallNS    int64 `json:"wall_ns"`
	SimNS     int64 `json:"sim_ns"`
	DebtStart int64 `json:"debt_records_at_start"`
	Replayed  int64 `json:"replayed_records"`
	Down      int   `json:"down"`
}

// Tracker is the live recovery-debt tracker. A nil *Tracker is the disabled
// tracker: every method no-ops (and allocates nothing).
type Tracker struct {
	mu    sync.Mutex
	cfg   Config
	start time.Time

	nodes []nodeState
	dirty map[int64]struct{}

	// Windowed series + watchdog.
	series    *obs.WindowRing[window]
	streak    int
	prevDebt  int64
	anomalies obs.AnomalyLog

	// Recovery / MTTR accounting.
	recovering    bool
	recoveryWall0 int64
	recoveryDebt0 int64
	recoveryDown  int
	recoveries    int64
	failures      int64
	totalMTTRNS   int64
	ewmaMTTRNS    float64
	lastRecovery  recoverySample
	haveRecovery  bool
}

// New creates a tracker.
func New(cfg Config) *Tracker {
	t := &Tracker{cfg: cfg, start: time.Now(), dirty: make(map[int64]struct{})}
	t.series = obs.NewWindowRing[window](windowNS, windows, nil)
	return t
}

// now returns monotonic wall nanoseconds since New.
func (t *Tracker) now() int64 { return int64(time.Since(t.start)) }

// nodeLocked returns node n's state, growing the table on demand.
func (t *Tracker) nodeLocked(n int32) *nodeState {
	for int(n) >= len(t.nodes) {
		t.nodes = append(t.nodes, nodeState{first: 1})
	}
	return &t.nodes[n]
}

// globalDebtLocked sums every node's debt records.
func (t *Tracker) globalDebtLocked() int64 {
	var total int64
	for i := range t.nodes {
		r, _ := t.nodes[i].debtLocked()
		total += r
	}
	return total
}

// windowLocked returns the window an event at sim counts in. Sim clocks
// from different nodes are not globally monotonic; a sim behind the live
// (newest) window counts in the live window rather than rolling backwards.
// A sim past it closes the live window, however far past: debt windows only
// move forward, and each one's closing debt feeds the watchdog.
func (t *Tracker) windowLocked(sim int64) *window {
	if id, w := t.series.Newest(); w != nil {
		if sim/windowNS <= id {
			return w
		}
		t.closeWindowLocked(id, w)
	}
	return t.series.At(sim)
}

// closeWindowLocked records a window's closing debt and evaluates the
// unbounded-growth watchdog: debt strictly rising across growthWindows
// consecutive windows with no safe-point advance, above the floor.
func (t *Tracker) closeWindowLocked(id int64, w *window) {
	w.EndDebt = t.globalDebtLocked()
	if w.EndDebt > t.prevDebt && w.SafeAdv == 0 {
		t.streak++
	} else {
		t.streak = 0
	}
	t.prevDebt = w.EndDebt
	if t.streak == growthWindows && w.EndDebt >= growthFloor {
		t.anomalies.Add(obs.Anomaly{Window: id, Sim: id * windowNS, Kind: "unbounded-debt-growth",
			Detail: fmt.Sprintf("global debt rose for %d consecutive windows with no safe-point advance (now %d records)",
				growthWindows, w.EndDebt)})
	}
}

// syncLocked re-bases a node whose append stream starts (or resumes) at an
// LSN the tracker has not accounted — a tracker attached mid-run. Lifetime
// counters survive; positional accounting restarts at lsn.
func (n *nodeState) syncLocked(lsn int64) {
	n.first = lsn
	n.last = lsn - 1
	n.cum = n.cum[:0]
}

// OnEvent folds one engine event; kinds the tracker does not account are
// ignored.
func (t *Tracker) OnEvent(e obs.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case obs.KindWALAppend:
		t.appendLocked(e.Node, e.A, uint8(e.B), uint64(e.C), e.Dur, e.Sim)
	case obs.KindWALForce:
		if e.A == 0 { // a torn force may have made nothing stable
			return
		}
		n := t.nodeLocked(e.Node)
		if e.B > n.forced {
			n.forced = e.B
		}
		n.forces++
		t.windowLocked(e.Sim).Forces++
	case obs.KindWALDiscard:
		t.discardLocked(e.Node, e.A)
	case obs.KindCrash:
		t.nodeLocked(e.Node).crashLocked()
	case obs.KindPageDirty:
		t.dirty[e.A] = struct{}{}
	case obs.KindPageFlush:
		delete(t.dirty, e.A)
	case obs.KindProgress:
		if e.Phase == obs.PhaseNone && e.A == 0 {
			t.recoveryStartLocked(int(e.B))
		}
	case obs.KindRecovery:
		t.recoveryEndLocked(e.C == 1, e.A, e.Dur)
	}
}

// appendLocked records one WAL append: node appended a record of the given
// type and encoded size, owned by txn (0 for non-transactional records), at
// simulated time sim.
func (t *Tracker) appendLocked(node int32, lsn int64, typ uint8, txn uint64, bytes, sim int64) {
	n := t.nodeLocked(node)
	if lsn != n.last+1 {
		n.syncLocked(lsn)
	}
	n.last = lsn
	prev := int64(0)
	if len(n.cum) > 0 {
		prev = n.cum[len(n.cum)-1]
	}
	n.cum = append(n.cum, prev+bytes)
	n.appends++
	n.appendBytes += bytes
	if int(typ) < maxRecordType {
		n.typeCount[typ]++
		n.typeBytes[typ] += bytes
	}
	w := t.windowLocked(sim)
	w.Appends++
	w.Bytes += bytes
	switch {
	case typ == typeCheckpoint:
		n.lastCkpt = lsn
		w.SafeAdv++
	case txn != 0:
		switch typ {
		case typeCommit, typeAbort:
			delete(n.active, txn)
		case typeCLR, typeLockRelease:
			// Neither opens a transaction: a lock release follows its
			// transaction's commit or abort record, and a CLR is written by
			// an abort already open here or by restart recovery for a
			// transaction that died with another node (or for an undo tag,
			// under no transaction at all).
		default:
			if n.active == nil {
				n.active = make(map[uint64]int64)
			}
			if _, ok := n.active[txn]; !ok {
				n.active[txn] = lsn
			}
		}
	default:
		n.unattributed++
	}
}

// crashLocked records the node's crash: the volatile log tail above its
// stable LSN is gone, so debt accounting truncates back to the stable prefix.
// Every transaction the node's log holds open is gone with it — recovery
// settles it, and nothing it logs reopens the entry.
func (n *nodeState) crashLocked() {
	n.crashes++
	if stable := n.forced; stable < n.last {
		n.last = stable
		if keep := stable - n.first + 1; keep >= 0 && keep <= int64(len(n.cum)) {
			n.cum = n.cum[:keep]
		} else if keep < 0 {
			n.cum = n.cum[:0]
			n.first = stable + 1
		}
		if n.lastCkpt > stable {
			n.lastCkpt = 0
		}
		if n.safeOverride > stable {
			n.safeOverride = stable
		}
	}
	clear(n.active)
}

// discardLocked records log truncation: node discarded every record with
// LSN < newFirst (the checkpointer reclaiming space below the low-water
// mark) — a safe-point advance by construction.
func (t *Tracker) discardLocked(node int32, newFirst int64) {
	n := t.nodeLocked(node)
	if newFirst > n.first {
		drop := newFirst - n.first
		if drop >= int64(len(n.cum)) {
			n.cum = n.cum[:0]
		} else {
			base := n.cum[drop-1]
			kept := n.cum[drop:]
			for i := range kept {
				kept[i] -= base
			}
			n.cum = append(n.cum[:0], kept...)
		}
		n.first = newFirst
		if n.last < newFirst-1 {
			n.last = newFirst - 1
		}
		n.drops += drop
		if _, w := t.series.Newest(); w != nil {
			w.SafeAdv++
		}
	}
}

// recoveryStartLocked opens a recovery run over `down` crashed nodes (the
// run's opening KindProgress event), snapshotting the global debt the run
// starts from.
func (t *Tracker) recoveryStartLocked(down int) {
	t.recovering = true
	t.recoveryWall0 = t.now()
	t.recoveryDebt0 = t.globalDebtLocked()
	t.recoveryDown = down
}

// recoveryEndLocked closes a recovery run (its KindRecovery span). A
// successful recovery contributes one MTTR sample and re-anchors every
// node's safe point at its current end of log — debt drops to zero and
// re-accumulates.
// replayed is the records recovery actually processed (redo applied+skipped,
// undo applied); simNS the simulated recovery duration.
func (t *Tracker) recoveryEndLocked(ok bool, replayed, simNS int64) {
	wall := t.now() - t.recoveryWall0
	if !t.recovering {
		wall = 0
	}
	t.recovering = false
	sample := recoverySample{
		OK: ok, WallNS: wall, SimNS: simNS,
		DebtStart: t.recoveryDebt0, Replayed: replayed, Down: t.recoveryDown,
	}
	t.lastRecovery = sample
	t.haveRecovery = true
	if !ok {
		t.failures++
		return
	}
	t.recoveries++
	t.totalMTTRNS += wall
	if t.ewmaMTTRNS == 0 {
		t.ewmaMTTRNS = float64(wall)
	} else {
		t.ewmaMTTRNS += ewmaAlpha * (float64(wall) - t.ewmaMTTRNS)
	}
	// Re-anchor every node (the tracker's view; see the package doc).
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.last > n.safeOverride {
			n.safeOverride = n.last
		}
	}
	if _, w := t.series.Newest(); w != nil {
		w.SafeAdv++
	}
	t.prevDebt = t.globalDebtLocked()
	t.streak = 0
}

// NodeSnapshot is one node's debt accounting at a Snapshot instant.
type NodeSnapshot struct {
	Node         int   `json:"node"`
	FirstLSN     int64 `json:"first_lsn"`
	LastLSN      int64 `json:"last_lsn"`
	ForcedLSN    int64 `json:"forced_lsn"`
	CkptLSN      int64 `json:"ckpt_lsn"`
	OldestActive int64 `json:"oldest_active_lsn"`
	SafeLSN      int64 `json:"safe_lsn"`
	ActiveTxns   int   `json:"active_txns"`
	DebtRecords  int64 `json:"debt_records"`
	DebtBytes    int64 `json:"debt_bytes"`
	UnforcedRecs int64 `json:"unforced_records"`
	RedoSpan     int64 `json:"redo_span"`
	UndoSpan     int64 `json:"undo_span"`
	Appends      int64 `json:"appends"`
	AppendBytes  int64 `json:"append_bytes"`
	Forces       int64 `json:"forces"`
	Crashes      int64 `json:"crashes"`
	Discarded    int64 `json:"discarded_records"`
	Unattributed int64 `json:"unattributed_records"`
	// EstNS is the simulated recovery time if this node crashed now: the
	// dirty pages' reads plus, if another node holds unforced records, one
	// log force (see Config).
	EstNS int64 `json:"est_recovery_ns"`
}

// Snapshot is the tracker's full state at an instant; the harness gates on
// its sim-deterministic fields and the JSON/Prom writers render it.
type Snapshot struct {
	DebtRecords int64 `json:"debt_records"`
	DebtBytes   int64 `json:"debt_bytes"`
	RedoSpan    int64 `json:"redo_span"`
	UndoSpan    int64 `json:"undo_span"`
	DirtyPages  int   `json:"dirty_pages"`
	// EstNS is the largest node's estimated recovery time.
	EstNS       int64          `json:"est_recovery_ns"`
	Coverage    float64        `json:"attr_coverage"`
	Appends     int64          `json:"appends"`
	AppendBytes int64          `json:"append_bytes"`
	Nodes       []NodeSnapshot `json:"nodes"`

	Recovering bool  `json:"recovering"`
	Recoveries int64 `json:"recoveries"`
	Failures   int64 `json:"failed_recoveries"`
	LastWallNS int64 `json:"last_mttr_wall_ns"`
	LastSimNS  int64 `json:"last_mttr_sim_ns"`
	AvgWallNS  int64 `json:"avg_mttr_wall_ns"`
	EwmaWallNS int64 `json:"ewma_mttr_wall_ns"`
	Anomalies  int   `json:"anomalies"`
}

// Snapshot copies the tracker's current accounting.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracker) snapshotLocked() Snapshot {
	s := Snapshot{
		DirtyPages: len(t.dirty),
		Recovering: t.recovering,
		Recoveries: t.recoveries,
		Failures:   t.failures,
		Anomalies:  t.anomalies.Total(),
	}
	if t.haveRecovery {
		s.LastWallNS = t.lastRecovery.WallNS
		s.LastSimNS = t.lastRecovery.SimNS
	}
	if t.recoveries > 0 {
		s.AvgWallNS = t.totalMTTRNS / t.recoveries
		s.EwmaWallNS = int64(t.ewmaMTTRNS)
	}
	var attributed int64
	for i := range t.nodes {
		n := &t.nodes[i]
		ckpt, oldest, safe := n.anchorsLocked()
		recs, bytes := n.debtLocked()
		ns := NodeSnapshot{
			Node: i, FirstLSN: n.first, LastLSN: n.last, ForcedLSN: n.forced,
			CkptLSN: ckpt, OldestActive: oldest, SafeLSN: safe,
			ActiveTxns: len(n.active), DebtRecords: recs, DebtBytes: bytes,
			Appends: n.appends, AppendBytes: n.appendBytes, Forces: n.forces,
			Crashes: n.crashes, Discarded: n.drops, Unattributed: n.unattributed,
		}
		if n.last > n.forced {
			ns.UnforcedRecs = n.last - n.forced
		}
		redoAnchor := ckpt
		if n.safeOverride > redoAnchor {
			redoAnchor = n.safeOverride
		}
		if n.last > redoAnchor {
			ns.RedoSpan = n.last - redoAnchor
		}
		if oldest > 0 && n.last >= oldest {
			ns.UndoSpan = n.last - oldest + 1
		}
		s.Nodes = append(s.Nodes, ns)
		s.DebtRecords += recs
		s.DebtBytes += bytes
		s.RedoSpan += ns.RedoSpan
		s.UndoSpan += ns.UndoSpan
		s.Appends += n.appends
		s.AppendBytes += n.appendBytes
		attributed += n.appends - n.unattributed
	}
	if s.Appends > 0 {
		s.Coverage = float64(attributed) / float64(s.Appends)
	} else {
		s.Coverage = 1
	}
	holders := 0 // nodes with unforced records
	for _, n := range s.Nodes {
		if n.UnforcedRecs > 0 {
			holders++
		}
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		n.EstNS = int64(len(t.dirty)) * t.cfg.DiskReadNS
		others := holders
		if n.UnforcedRecs > 0 {
			others--
		}
		if others > 0 {
			n.EstNS += t.cfg.LogForceNS
		}
		s.EstNS = max(s.EstNS, n.EstNS)
	}
	return s
}

// disabledJSON matches the rest of the obs stack's degraded surfaces.
const disabledJSON = "{\"enabled\": false}\n"

// debtDoc is the /recovery/debt (and flight-recorder debt.json) body.
type debtDoc struct {
	Enabled bool `json:"enabled"`
	Snapshot
	WindowNS     int64           `json:"window_ns"`
	LastRecovery *recoverySample `json:"last_recovery,omitempty"`
	Windows      []window        `json:"windows,omitempty"`
	AnomalyList  []obs.Anomaly   `json:"anomaly_list,omitempty"`
}

// WriteDebtJSON writes the full debt document ({"enabled": false} on a nil
// tracker, like every degraded obs surface).
func (t *Tracker) WriteDebtJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	t.mu.Lock()
	doc := debtDoc{
		Enabled:     true,
		Snapshot:    t.snapshotLocked(),
		WindowNS:    windowNS,
		AnomalyList: t.anomalies.List(),
	}
	live, _ := t.series.Newest()
	t.series.Each(func(id int64, w *window) {
		c := *w
		c.ID = id
		if id == live {
			c.EndDebt = t.globalDebtLocked()
		}
		doc.Windows = append(doc.Windows, c)
	})
	if t.haveRecovery {
		lr := t.lastRecovery
		doc.LastRecovery = &lr
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteDebtProm appends the smdb_recovery_debt_* Prometheus exposition
// lines (nothing on a nil tracker).
func (t *Tracker) WriteDebtProm(w io.Writer) error {
	if t == nil {
		return nil
	}
	s := t.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_records Log records above each node's safe point (replay debt).\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_records gauge\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "smdb_recovery_debt_records{node=\"%d\"} %d\n", n.Node, n.DebtRecords)
	}
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_bytes Log bytes above each node's safe point.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_bytes gauge\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "smdb_recovery_debt_bytes{node=\"%d\"} %d\n", n.Node, n.DebtBytes)
	}
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_safe_lsn Each node's effective safe-point LSN.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_safe_lsn gauge\n")
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "smdb_recovery_debt_safe_lsn{node=\"%d\"} %d\n", n.Node, n.SafeLSN)
	}
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_estimate_ns Estimated simulated recovery time if the costliest node crashed now.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_estimate_ns gauge\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_estimate_ns %d\n", s.EstNS)
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_dirty_pages Pages whose cached lines diverge from disk.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_dirty_pages gauge\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_dirty_pages %d\n", s.DirtyPages)
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_attr_coverage Fraction of appended records attributed to a transaction or system category.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_attr_coverage gauge\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_attr_coverage %.6f\n", s.Coverage)
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_recoveries_total Completed recoveries observed.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_recoveries_total counter\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_recoveries_total %d\n", s.Recoveries)
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_mttr_ns Recovery wall-time accounting.\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_mttr_ns gauge\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_mttr_ns{stat=\"last\"} %d\n", s.LastWallNS)
	fmt.Fprintf(&b, "smdb_recovery_debt_mttr_ns{stat=\"ewma\"} %d\n", s.EwmaWallNS)
	fmt.Fprintf(&b, "# HELP smdb_recovery_debt_anomalies_total Watchdog anomalies (unbounded debt growth).\n")
	fmt.Fprintf(&b, "# TYPE smdb_recovery_debt_anomalies_total counter\n")
	fmt.Fprintf(&b, "smdb_recovery_debt_anomalies_total %d\n", s.Anomalies)
	_, err := io.WriteString(w, b.String())
	return err
}

// Anomalies returns a copy of the watchdog findings.
func (t *Tracker) Anomalies() []obs.Anomaly {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.anomalies.List()
}

// TypeAttribution returns the per-record-type lifetime counts summed over
// nodes, keyed by the numeric wal record type, sorted by type.
func (t *Tracker) TypeAttribution() []TypeCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var agg [maxRecordType]TypeCount
	for i := range t.nodes {
		for ty := range agg {
			agg[ty].Type = uint8(ty)
			agg[ty].Records += t.nodes[i].typeCount[ty]
			agg[ty].Bytes += t.nodes[i].typeBytes[ty]
		}
	}
	out := make([]TypeCount, 0, maxRecordType)
	for _, c := range agg {
		if c.Records > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// TypeCount is one record type's lifetime attribution.
type TypeCount struct {
	Type    uint8 `json:"type"`
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// Summary renders the end-of-run one-liner the commands print.
func (t *Tracker) Summary() string {
	if t == nil {
		return "debt: disabled"
	}
	s := t.Snapshot()
	return fmt.Sprintf("debt: %d record(s) / %d byte(s) over %d node(s), %d dirty page(s), est recovery %s sim; %d recovery(ies), last MTTR %s wall, %d anomaly(ies)",
		s.DebtRecords, s.DebtBytes, len(s.Nodes), s.DirtyPages, obs.FormatNS(s.EstNS),
		s.Recoveries, obs.FormatNS(s.LastWallNS), s.Anomalies)
}
