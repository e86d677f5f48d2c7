// Package obs is the engine-wide observability layer: a low-overhead,
// race-clean event tracer plus latency histograms, wired through every
// engine layer (machine, wal, lock, buffer, txn, recovery).
//
// The tracer records typed events into per-node ring buffers, each event
// carrying both a simulated-clock timestamp (the engine's calibrated
// 1995-hardware time base) and a wall-clock timestamp. Coherency traffic
// (migrations, downgrades, invalidations, trigger fires), WAL appends and
// forces, lock acquisitions and waits, transaction lifecycle, node crashes,
// and every restart-recovery phase (as an explicit span) all flow through
// it, so experiments can argue about the *shape* of a run — when the
// migrations happened, how recovery time divides into phases — rather than
// only end-of-run counter totals.
//
// Three exporters render the same data: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing), Prometheus text exposition, and an
// aligned text table.
//
// A nil *Observer is fully inert: every method is nil-receiver safe and
// returns immediately, so the engine's hooks cost a single pointer test
// when tracing is disabled.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, grouped by the engine layer that emits them.
const (
	// Coherency traffic (internal/machine).
	KindMigrate Kind = iota
	KindDowngrade
	KindInvalidate
	KindTriggerFire
	// KindLineLockWait is a line-lock acquisition that waited, contended or
	// queued behind the line's last release in simulated time (A = line; B = 0
	// if contended, else that release's instant; C = holder node: the owner
	// when the wait began, else the last releaser, -1 for none; Dur = latency
	// less any trigger-force cost, ending at Sim). Acquisitions that did not
	// wait feed the line-lock histogram but emit no event.
	KindLineLockWait
	// Log pipeline (internal/wal). Appends: A = LSN, B = record type,
	// C = owning transaction (0 for none), Dur = encoded size in bytes.
	// Forces: A = records made stable, B = highest stable LSN.
	KindWALAppend
	KindWALForce
	// Lock manager (internal/lock): A = lock name, B = mode.
	KindLockAcquire
	KindLockWait
	// KindDeadlock is a deadlock-victim decision (A = victim transaction).
	KindDeadlock
	// Transaction lifecycle (internal/recovery): A = transaction id;
	// B = commit latency in simulated ns for commits. A commit or abort also
	// closes the transaction's operation bracket, if one is open.
	KindTxnBegin
	KindTxnCommit
	KindTxnAbort
	// Buffer manager (internal/buffer): A = page; B = 1 for a disk read
	// (fetch) or a steal (flush), 0 otherwise; a fetch's Dur is the disk
	// read's simulated cost. A page-flush is a dirty page turning clean: a
	// flush, or, on the SystemNode track, a page whose every line a crash
	// destroyed, which recovery leaves to its disk image.
	KindPageFetch
	KindPageFlush
	// KindCrash is a node failure (A = lines destroyed machine-wide,
	// B = lines orphaned on survivors).
	KindCrash
	// KindPhase is one restart-recovery phase, recorded as a span (Phase
	// names it; Sim is the span start; Dur its simulated duration).
	KindPhase
	// KindRecovery is the whole restart-recovery run, the parent span
	// enclosing the phase spans, recorded when the run ends, failed or not
	// (A = records replayed, C = 1 if the run recovered).
	KindRecovery
	// KindFault is an injected fault firing (internal/fault via the hooked
	// layer; A = fault-site discriminator, B = victim node or 0).
	KindFault
	// KindIORetry is a transient storage error retried by a caller
	// (A = attempt number, B = backoff charged in simulated ns).
	KindIORetry
	// KindReplicate is a shared-read remote fetch replicating a line into
	// another cache without a downgrade (A = line, B = a prior holder).
	// Downgrades and migrations have their own kinds; together the four
	// residency kinds let a consumer reconstruct every line's holder set.
	KindReplicate
	// KindInstall is a line (re)installed from stable storage, replacing
	// all cached copies (A = line; node = the new sole holder).
	KindInstall
	// KindDiscard drops one node's cached copy (A = line, B = 1 if that was
	// the last copy and the content was destroyed).
	KindDiscard
	// KindDepEdge is a recovery-dependency edge discovered by the
	// dependency tracker (internal/obs/deps): node = the dependent
	// transaction's home node, A = its transaction id, B packs the node now
	// holding its uncommitted data with the line (to<<32 | line).
	KindDepEdge
	// KindWALDiscard is log truncation (internal/wal): every record below
	// LSN A was discarded.
	KindWALDiscard
	// KindPageDirty is page A turning dirty (internal/buffer; once per
	// clean-to-dirty transition, on the SystemNode track).
	KindPageDirty
	// KindOpStart and KindOpEnd bracket one transaction operation on the
	// transaction's node (internal/txn, internal/recovery; A = transaction,
	// B = the Cause its unexplained time is charged to). Brackets nest; the
	// outermost counts.
	KindOpStart
	KindOpEnd
	// KindTxnWait is an attributed wait, a span of Dur simulated ns from Sim
	// (A = transaction, 0 for the node's transaction in an open bracket;
	// B = Cause; C = its subject: an LSN or a lock name).
	KindTxnWait
	// KindProgress is restart-recovery progress (SystemNode track). Without
	// a Phase it opens the run (A = 0, B = nodes down) or an attempt (A = its
	// number). With one it reports that phase's work since its last progress
	// event (A = records, B = bytes) or, with C = 1, its planned total (A).
	KindProgress

	numKinds
)

var kindNames = [numKinds]string{
	"migrate", "downgrade", "invalidate", "trigger-fire", "line-lock-wait",
	"wal-append", "wal-force", "lock-acquire", "lock-wait", "deadlock",
	"txn-begin", "txn-commit", "txn-abort", "page-fetch", "page-flush",
	"crash", "phase", "recovery", "fault", "io-retry",
	"replicate", "install", "discard", "dep-edge",
	"wal-discard", "page-dirty", "op-start", "op-end", "txn-wait",
	"progress",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Phase names a restart-recovery phase (see internal/recovery's Recover).
type Phase uint8

const (
	PhaseNone Phase = iota
	// PhaseFreeze spans from the crash to the start of restart recovery:
	// the hardware has interrupted all CPUs and transaction processing is
	// stalled.
	PhaseFreeze
	// PhaseDirectoryRepair reinstalls destroyed lock-table lines and sweeps
	// broken LCB chains (section 4.2.2's structural repair).
	PhaseDirectoryRepair
	// PhaseLockRebuild releases crashed transactions' lock entries and
	// replays the survivors' logical lock logs.
	PhaseLockRebuild
	// PhaseRedoScan settles the redo candidate list (under Redo All, after
	// the survivors discard their caches). The log views and the candidates
	// themselves are built by the attempt's log walks before directory
	// repair, so a host-time stamp of the phases charges the walks to
	// PhaseDirectoryRepair, not here.
	PhaseRedoScan
	// PhaseRedoApply applies the redo candidates whose effects are missing,
	// probing each line's residency as it first reads it (Selective Redo's
	// "cache miss with I/O disabled" test, plus reinstalling lost lines
	// from the stable database).
	PhaseRedoApply
	// PhaseUndo rolls back crashed transactions from their stable logs.
	PhaseUndo
	// PhaseUndoTagScan is the Selective Redo sequential cache scan for
	// undo-tagged records of dead transactions.
	PhaseUndoTagScan
	// PhaseSettle settles crash victims (stable-committed vs aborted) and
	// dooms orphaned parallel-transaction branches.
	PhaseSettle

	numPhases
)

var phaseNames = [numPhases]string{
	"none", "freeze", "directory-repair", "lock-rebuild", "redo-scan",
	"redo-apply", "undo", "undo-tag-scan", "settle",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Cause labels where a transaction's simulated time went: the cause of a
// KindTxnWait, or the one a KindOpStart bracket charges its residue to. In
// order: the residue of an operation's time no wait explains (directory
// walks, uncontended line acquisitions, slot I/O, log-manager CPU); a
// record or key lock; a machine line (queued behind its lock or a
// migration); a disk fetch; a log append; a log force; the recovery freeze
// window (ErrBlocked stalls while a crash is repaired); rollback (the undo
// walk and its installs).
type Cause uint8

const (
	CauseCompute Cause = iota
	CauseLockWait
	CauseLineWait
	CauseFetch
	CauseLogAppend
	CauseLogForce
	CauseFrozen
	CauseUndo

	NumCauses = int(CauseUndo) + 1 // how many causes there are
)

var causeNames = [NumCauses]string{
	"compute", "lock-wait", "line-wait", "fetch",
	"log-append", "log-force", "frozen", "undo",
}

// String returns the cause's label (the Prometheus cause= value).
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// SystemNode is the pseudo-node recovery spans are recorded against: restart
// recovery is coordinated machine-wide, not by any single node.
const SystemNode int32 = -1

// Event is one trace record. Sim is the simulated-clock timestamp in
// nanoseconds (span start for span kinds), Wall the wall-clock timestamp
// (UnixNano), Dur the simulated duration for span kinds, and A/B/C carry
// kind-specific arguments (see the Kind constants).
type Event struct {
	Kind    Kind
	Phase   Phase
	Node    int32
	PID     int32
	Sim     int64
	Wall    int64
	Dur     int64
	A, B, C int64
}

// PhaseSpan is one recovery phase's timing (simulated nanoseconds), the
// per-phase breakdown attached to recovery reports and experiment tables.
type PhaseSpan struct {
	Phase Phase
	Start int64
	Dur   int64
}

// maxTracks bounds the per-node ring array: 64 nodes (the machine's limit)
// plus the system track. Track index = node + 1.
const maxTracks = 65

// DefaultRingCapacity is the per-node event capacity when none is given.
const DefaultRingCapacity = 1 << 14

// ring is one node's event buffer: fixed capacity, overwriting the oldest
// events, so a long run keeps its most recent history.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
}

func (r *ring) record(cap int, e Event) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Event, cap)
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// snapshot returns the ring's events in record order.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return nil
	}
	var out []Event
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Sink receives every event an Observer records, synchronously, after the
// event has been placed in its ring. Implementations must be safe for
// concurrent calls and must not call back into the engine layer that emitted
// the event (emitters may hold their own locks across Record); calling back
// into the Observer itself is allowed. An Observer has one sink; the engine's
// hook set (internal/obs/hooks) is the canonical one, and hands each event on
// to the consumers that fold it.
type Sink interface {
	OnEvent(Event)
}

// Observer is the engine-wide trace collector. All methods are safe for
// concurrent use, and all are nil-receiver safe: a nil Observer records
// nothing and costs one pointer test per hook.
type Observer struct {
	cap   int
	rings [maxTracks]ring

	// sink, when set, sees every recorded event (stored as *Sink so the
	// hot path is one atomic load).
	sink atomic.Pointer[Sink]

	// counts survive ring overwrites: total events recorded per kind.
	counts [numKinds]atomic.Int64

	// pid groups events into trace "processes" (one per experiment run).
	pid    atomic.Int32
	procMu sync.Mutex
	procs  map[int32]string

	// The engine's three headline latency distributions.
	lineLock *Histogram
	commit   *Histogram
	logForce *Histogram
}

// New creates an observer with the default per-node ring capacity.
func New() *Observer { return NewWithCapacity(DefaultRingCapacity) }

// NewWithCapacity creates an observer keeping up to perNode events per node.
func NewWithCapacity(perNode int) *Observer {
	if perNode < 1 {
		perNode = DefaultRingCapacity
	}
	return &Observer{
		cap:      perNode,
		procs:    map[int32]string{0: "smdb"},
		lineLock: NewHistogram("line_lock_latency_ns"),
		commit:   NewHistogram("txn_commit_latency_ns"),
		logForce: NewHistogram("log_force_latency_ns"),
	}
}

// Enabled reports whether tracing is live (false for a nil Observer).
func (o *Observer) Enabled() bool { return o != nil }

// track maps a node id onto a ring index.
func track(node int32) int {
	i := int(node) + 1
	if i < 0 || i >= maxTracks {
		i = 0
	}
	return i
}

// Record appends a fully-formed event. The wall timestamp is filled in if
// zero.
func (o *Observer) Record(e Event) {
	if o == nil {
		return
	}
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
	}
	if e.PID == 0 {
		e.PID = o.pid.Load()
	}
	if e.Kind < numKinds {
		o.counts[e.Kind].Add(1)
	}
	o.rings[track(e.Node)].record(o.cap, e)
	if s := o.sink.Load(); s != nil {
		(*s).OnEvent(e)
	}
}

// SetSink installs (or, with nil, removes) the event sink. The sink sees
// every subsequent Record call synchronously on the recording goroutine.
func (o *Observer) SetSink(s Sink) {
	if o == nil {
		return
	}
	if s == nil {
		o.sink.Store(nil)
		return
	}
	o.sink.Store(&s)
}

// Instant records a point event at simulated time sim on node's track.
func (o *Observer) Instant(k Kind, node int32, sim, a, b int64) {
	if o == nil {
		return
	}
	o.Record(Event{Kind: k, Node: node, Sim: sim, A: a, B: b})
}

// Span records a duration event (a recovery phase or the whole recovery)
// starting at simulated time start and lasting dur simulated nanoseconds.
func (o *Observer) Span(k Kind, p Phase, node int32, start, dur int64) {
	if o == nil {
		return
	}
	o.Record(Event{Kind: k, Phase: p, Node: node, Sim: start, Dur: dur})
}

// ObserveLineLock feeds one line-lock acquisition latency (simulated ns).
func (o *Observer) ObserveLineLock(ns int64) {
	if o == nil {
		return
	}
	o.lineLock.Observe(ns)
}

// ObserveCommit feeds one transaction commit latency (simulated ns,
// begin-to-commit).
func (o *Observer) ObserveCommit(ns int64) {
	if o == nil {
		return
	}
	o.commit.Observe(ns)
}

// ObserveLogForce feeds one physical log-force latency (simulated ns).
func (o *Observer) ObserveLogForce(ns int64) {
	if o == nil {
		return
	}
	o.logForce.Observe(ns)
}

// LineLockHist, CommitHist, and LogForceHist expose the headline histograms
// (nil for a nil Observer).
func (o *Observer) LineLockHist() *Histogram {
	if o == nil {
		return nil
	}
	return o.lineLock
}

func (o *Observer) CommitHist() *Histogram {
	if o == nil {
		return nil
	}
	return o.commit
}

func (o *Observer) LogForceHist() *Histogram {
	if o == nil {
		return nil
	}
	return o.logForce
}

// Histograms returns the observer's histograms in presentation order.
func (o *Observer) Histograms() []*Histogram {
	if o == nil {
		return nil
	}
	return []*Histogram{o.lineLock, o.commit, o.logForce}
}

// BeginProcess starts a new trace process group (one per experiment run in
// a sweep); subsequent events carry its pid, and the Chrome trace exporter
// renders each process as its own named track group.
func (o *Observer) BeginProcess(name string) {
	if o == nil {
		return
	}
	pid := o.pid.Add(1)
	o.procMu.Lock()
	o.procs[pid] = name
	o.procMu.Unlock()
}

// processes snapshots the pid -> name map.
func (o *Observer) processes() map[int32]string {
	o.procMu.Lock()
	defer o.procMu.Unlock()
	out := make(map[int32]string, len(o.procs))
	for k, v := range o.procs {
		out[k] = v
	}
	return out
}

// Events returns every retained event, ordered by (PID, Sim, Wall).
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	var out []Event
	for i := range o.rings {
		out = append(out, o.rings[i].snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		if out[i].Sim != out[j].Sim {
			return out[i].Sim < out[j].Sim
		}
		return out[i].Wall < out[j].Wall
	})
	return out
}

// Count returns the number of events ever recorded with kind k (ring
// overwrites do not decrement it).
func (o *Observer) Count(k Kind) int64 {
	if o == nil || k >= numKinds {
		return 0
	}
	return o.counts[k].Load()
}

// PhaseSpans extracts the recovery-phase spans (KindPhase events) from the
// retained trace, in time order. With several recoveries in the trace, all
// their phases are returned; pair with KindRecovery spans to segment them.
func (o *Observer) PhaseSpans() []PhaseSpan {
	if o == nil {
		return nil
	}
	var out []PhaseSpan
	for _, e := range o.Events() {
		if e.Kind == KindPhase {
			out = append(out, PhaseSpan{Phase: e.Phase, Start: e.Sim, Dur: e.Dur})
		}
	}
	return out
}
