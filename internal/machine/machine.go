// Package machine simulates a cache-coherent shared-memory multiprocessor
// with independent node failures, in the style of the KSR-1 and the Stanford
// FLASH machines assumed by Molesky & Ramamritham (SIGMOD 1995).
//
// A node is a processor/memory pair. Shared memory is a flat array of cache
// lines; every valid line is resident in one or more node caches (an
// ALLCACHE-style model: memory *is* the union of the caches, and anything not
// cached anywhere must be re-fetched from disk by the database layers above).
// The hardware keeps the caches coherent with a write-invalidate protocol (a
// write-broadcast variant is also provided), so a line can migrate and
// replicate between nodes as a side effect of ordinary reads and writes.
//
// A node crash destroys the contents of that node's cache: every line whose
// only valid copy was on the crashed node is lost. The machine then performs
// the FLASH-style low-level recovery step, restoring the coherency directory
// to a state consistent with the surviving caches. Everything above this
// (undo, redo, IFA) is the job of the database recovery protocols.
//
// The machine also provides the two hardware hooks the paper's protocols
// rely on:
//
//   - line locks (KSR-1 gsp/rsp, here GetLine/ReleaseLine), which pin a line
//     exclusively in the caller's cache so an update and its log write can be
//     made atomic with respect to migration, and
//   - a per-line "active data" bit with a pre-transition callback, the
//     coherency-protocol extension of section 5.2 used to trigger log forces
//     exactly when an active line is about to be downgraded or invalidated.
//
// All operations advance a per-node simulated clock according to a CostModel,
// so experiments can report latencies in simulated time with the shape (not
// the absolute values) of the paper's 1995 hardware.
//
// # Concurrency model
//
// The line directory is sharded: all state of line l — its data, directory
// entry, active bit, and line lock — is guarded by the stripe l hashes to,
// and a goroutine holds at most one stripe at a time: a line operation holds
// its line's stripe for its duration, and a line section (section.go) holds
// it across the steps of one line-lock critical section, yielding it before
// it touches anything that may take another. Operations
// on lines in different stripes run in parallel on real CPUs, which is what
// lets the parallel restart-recovery pipeline scale with the survivor count.
// Per-node clocks, counters, and node liveness are atomics readable without
// any lock. Whole-machine transitions (Crash) quiesce the machine by taking
// every stripe that guards a line in ascending order, so a crash and its
// notification callback remain atomic with respect to all line traffic,
// exactly as under the old single global mutex. What is *no longer* globally ordered: operations on
// lines in different stripes have no defined mutual order, and an injected
// transition fault (SetTransitionFault) crashes its victims immediately
// *after* the triggering operation completes and releases its stripe rather
// than from inside it — see consultFault in crash.go for why this preserves
// the observable crash semantics.
package machine

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"smdb/internal/obs"
	"smdb/internal/obs/prof"
)

// NodeID identifies a processor/memory pair. Nodes are numbered from 0.
type NodeID int32

// NoNode is the null node identifier (for example, the undo tag of a record
// with no active transaction, or the owner of an unowned line).
const NoNode NodeID = -1

// LineID identifies a cache line in the shared address space.
type LineID int32

// NoLine is the null line identifier.
const NoLine LineID = -1

// Coherency selects the hardware cache-coherency protocol.
type Coherency int

const (
	// WriteInvalidate invalidates all other cached copies before a write,
	// so the writer ends up with the only copy (the paper's main model).
	WriteInvalidate Coherency = iota
	// WriteBroadcast propagates writes to every cached copy, so write-write
	// sharing replicates rather than migrates lines (section 7).
	WriteBroadcast
)

func (c Coherency) String() string {
	switch c {
	case WriteInvalidate:
		return "write-invalidate"
	case WriteBroadcast:
		return "write-broadcast"
	default:
		return fmt.Sprintf("Coherency(%d)", int(c))
	}
}

// Errors returned by machine operations.
var (
	// ErrLineLost reports an access to a line that is valid in no cache:
	// either it was never installed, or a node crash destroyed its only
	// copy. The database layer reacts by re-fetching from stable storage
	// (or, during Selective Redo's probe phase, by scheduling a redo).
	ErrLineLost = errors.New("machine: cache line not resident in any cache")
	// ErrNodeDown reports an operation issued by or to a crashed node.
	ErrNodeDown = errors.New("machine: node is down")
	// ErrBadAddress reports an out-of-range line or byte offset.
	ErrBadAddress = errors.New("machine: bad address")
	// ErrNotLockHolder reports a ReleaseLine by a node that does not hold
	// the line lock.
	ErrNotLockHolder = errors.New("machine: caller does not hold line lock")
	// ErrLineLockHeld reports a destructive operation (Discard, Install)
	// on a line whose line lock is held.
	ErrLineLockHeld = errors.New("machine: line lock held")
)

// Config parameterizes a simulated machine.
type Config struct {
	// Nodes is the number of processor/memory pairs (1..64).
	Nodes int
	// LineSize is the coherency unit in bytes. The KSR-1 and FLASH both
	// use 128-byte lines; that is the default.
	LineSize int
	// Lines is the number of cache lines of shared memory.
	Lines int
	// Coherency selects write-invalidate (default) or write-broadcast.
	Coherency Coherency
	// Cost is the simulated-time cost model. Zero fields are filled with
	// DefaultCostModel values.
	Cost CostModel
}

func (c *Config) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.LineSize == 0 {
		c.LineSize = 128
	}
	if c.Lines == 0 {
		c.Lines = 1 << 16
	}
	c.Cost.setDefaults()
}

func (c *Config) validate() error {
	if c.Nodes < 1 || c.Nodes > 64 {
		return fmt.Errorf("machine: Nodes must be in 1..64, got %d", c.Nodes)
	}
	if c.LineSize < 8 {
		return fmt.Errorf("machine: LineSize must be >= 8, got %d", c.LineSize)
	}
	if c.Lines < 1 {
		return fmt.Errorf("machine: Lines must be >= 1, got %d", c.Lines)
	}
	return nil
}

// lineLock is the hardware line-lock state of one cache line.
type lineLock struct {
	held    bool
	owner   NodeID
	waiters int
	// freeAt is the simulated time at which the lock last became (or will
	// become) free; it chains queueing delay through successive holders.
	freeAt int64
	// lastRel is the node that last released the lock, so a queued but
	// uncontended acquisition — simulated queueing chained through freeAt —
	// can still name the node it waited behind.
	lastRel NodeID
}

// line is one cache line plus its directory entry.
type line struct {
	data []byte
	// valid: resident in at least one cache. Written under the stripe;
	// atomic so Resident can read it without one.
	valid   atomic.Bool
	holders bitset // nodes with a valid copy
	excl    NodeID // node with the (sole, writable) copy; NoNode if shared
	active  bool   // "contains active data" trigger bit (section 5.2)
	lock    lineLock
}

// stripeCount is the number of lock stripes sharding the line directory.
// A power of two, so the stripe of a line is a mask of its LineID. It is the
// benchmark machine's line count (4 096), so none of its lines share a
// stripe, and a transaction on its own node's lines takes no mutex another
// node's transactions take. At 128 stripes "contention negligible" held for
// waiting but not for the host's cache: every node's private heap and
// lock-table lines landed on all 128 mutexes, and lockStripe was the
// largest growth in a fwd-private transaction's CPU from one client to two
// (+1.6 of +6.2 µs per transaction over 44 s profiles on 2 vCPUs). The
// price is paid per machine, not per operation: New zeroes 512 KiB of
// stripes (89 -> 289 µs for a 4-node, 4 096-line machine) and Crash takes
// and releases every stripe that guards a line (a Crash/Restart pair of
// that machine 21 -> 140 µs).
const stripeCount = 4096

// stripeMask extracts a LineID's stripe index.
const stripeMask = stripeCount - 1

// stripe is one shard of the line-directory lock. The cond wakes GetLine
// waiters queued on lines of this stripe (on release and on crash); it is
// embedded, with its L set by New, so a machine's stripes are one
// allocation with the Machine rather than one cond object each.
type stripe struct {
	mu   sync.Mutex
	cond sync.Cond
	// holdStart is the profiler's open hold-span start (prof.Now ns).
	// Guarded by mu itself: nonzero exactly while a profiled critical
	// section is open (see lockStripe/unlockStripe in prof.go).
	holdStart int64
	// idx is this stripe's own index, for profiler attribution.
	idx int32
	// pad the struct to two cache lines so neighbouring stripes — which
	// guard neighbouring lines, often of different nodes — do not false-
	// share on real hardware.
	_ [52]byte
}

// EventKind classifies coherency-protocol transitions that can expose
// uncommitted data to remote failure domains.
type EventKind int

const (
	// EventMigrate: an exclusively held line moves to another node because
	// of a remote write (history H_ww1/H_ww2). The old copy is invalidated.
	EventMigrate EventKind = iota
	// EventDowngrade: an exclusively held line is downgraded to shared
	// because of a remote read (history H_wr). Copies then exist on both
	// nodes.
	EventDowngrade
	// EventInvalidate: shared copies are invalidated because some node
	// writes the line.
	EventInvalidate
)

func (k EventKind) String() string {
	switch k {
	case EventMigrate:
		return "migrate"
	case EventDowngrade:
		return "downgrade"
	case EventInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event describes a coherency transition on a line whose active bit is set.
type Event struct {
	Line LineID
	Kind EventKind
	// From is the node losing exclusivity (migrate, downgrade) or one of
	// the nodes losing its shared copy (invalidate; From is the lowest).
	From NodeID
	// To is the node acquiring the line.
	To NodeID
}

// PreTransitionFunc is invoked, with the line's stripe lock held, immediately
// before a coherency transition on a line whose active bit is set. It is the
// software half of the section 5.2 hardware extension: the recovery policy
// uses it to force log records to stable store before uncommitted data
// becomes visible to (or dependent on) another failure domain. The returned
// duration (simulated nanoseconds) is charged to the node that triggered the
// transition. The callback must not call back into the Machine except
// through lock-free methods (Clock, MaxClock, Alive).
type PreTransitionFunc func(ev Event) (cost int64, err error)

// TransitionFaultFunc is the fault-injection hook: it is invoked, with the
// line's stripe lock held, immediately *after* every coherency transition (on
// any line, active or not) and returns the nodes to crash at that instant —
// the hazard windows Logging-Before-Migration exists to cover. alive is the
// current live-node count, so the injector can respect a survivor floor. The
// hook must not call back into the Machine. The crash itself is applied as
// soon as the triggering operation completes and releases its stripe (see
// the package comment on the concurrency model).
type TransitionFaultFunc func(ev Event, alive int) []NodeID

// hookSet bundles the rarely-mutated callbacks so line operations can load
// all of them with a single atomic read. Set* methods copy-on-write under
// hookMu; the stored pointer is never nil.
type hookSet struct {
	preTransition   PreTransitionFunc
	transitionFault TransitionFaultFunc
	crashNotify     func(CrashReport)
	installGate     InstallGateFunc
	schedNote       SchedNoteFunc
	obs             *obs.Observer
	prof            *prof.StripeProf
}

// InstallGateFunc is consulted by Install with the line's stripe held,
// before any bytes change. A non-nil error vetoes the install. Because a
// crash acquires every stripe before publishing its state change, a gate
// that reads crash-published state (e.g. the database's frozen flag) can
// never race with the crash itself: the flag cannot flip while the install
// holds its stripe. The hook must not call back into the Machine.
type InstallGateFunc func(nd NodeID, l LineID) error

// SchedNoteFunc annotates low-level interleaving (line-lock grants,
// installs) for the chaos schedule recorder. It may be called with a stripe
// held, so it must be cheap and must not call back into the Machine.
type SchedNoteFunc func(nd NodeID, site string, l LineID)

// Machine is a simulated cache-coherent shared-memory multiprocessor.
// All methods are safe for concurrent use by multiple goroutines.
type Machine struct {
	// stripes shard the line directory: all state of line l (data,
	// directory entry, active bit, line lock) is guarded by
	// stripes[l&stripeMask]. A line operation or section holds exactly one
	// stripe and never blocks on a second one, so operations on lines of
	// different stripes proceed in parallel. First in the struct, so the
	// stripes start where the (page-aligned) Machine does and each keeps
	// its own cache lines.
	stripes [stripeCount]stripe

	cfg   Config
	lines []line

	// liveMu orders whole-machine liveness transitions (Crash, Restart).
	// Crash additionally acquires every stripe in ascending order, so the
	// crash sweep — and the crashNotify callback it ends with — is atomic
	// with respect to every line operation, preserving the old global-
	// mutex guarantee that no goroutine ever observes a half-crashed node.
	liveMu sync.Mutex
	// aliveMask has bit n set while node n is up (Nodes <= 64 by
	// validation). Line operations read it under their stripe lock; it
	// only transitions downward while every stripe is held (Crash), and
	// upward without any line state changing (Restart).
	aliveMask atomic.Uint64

	allocMu sync.Mutex
	// next is the bump-allocator frontier: lines 0..next-1 are allocated.
	// Atomic so sweeps (Crash, CachedLines, DiscardAll) read it lock-free.
	next atomic.Int64

	// nodes holds each node's simulated clock and counters on cache lines
	// of its own (see nodeBlock); global counts the events no node issues.
	nodes  []nodeBlock
	global Stats

	// hooks is copy-on-write under hookMu; never nil.
	hookMu sync.Mutex
	hooks  atomic.Pointer[hookSet]
}

// New constructs a machine. It panics on an invalid configuration, since a
// configuration is always programmer-provided.
func New(cfg Config) *Machine {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:   cfg,
		lines: make([]line, cfg.Lines),
		nodes: make([]nodeBlock, cfg.Nodes),
	}
	for i := range m.stripes {
		m.stripes[i].cond.L = &m.stripes[i].mu
		m.stripes[i].idx = int32(i)
	}
	m.aliveMask.Store(^uint64(0) >> (64 - uint(cfg.Nodes)))
	m.hooks.Store(&hookSet{})
	for i := range m.lines {
		m.lines[i].excl = NoNode
		m.lines[i].lock.owner = NoNode
		m.lines[i].lock.lastRel = NoNode
	}
	return m
}

// stripeOf returns the stripe guarding line l.
func (m *Machine) stripeOf(l LineID) *stripe {
	return &m.stripes[int(l)&stripeMask]
}

// stripesOver returns the stripes that guard at least one of lines 0..n-1,
// in ascending order: all of them once n reaches stripeCount. A sweep over
// those lines (or, with n the line count, the crash quiesce) needs no other.
func (m *Machine) stripesOver(n int) []stripe {
	return m.stripes[:min(n, stripeCount)]
}

// frontier returns the bump-allocator frontier: every allocated line id is
// below it. Lock-free.
func (m *Machine) frontier() LineID { return LineID(m.next.Load()) }

// maxStoreInt64 advances *addr to v if v is greater. Used for absolute
// clock stores so concurrent charges to the same node's clock can never
// move it backwards (the simulated-clock monotonicity invariant).
func maxStoreInt64(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// Config returns the machine's configuration (with defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Nodes returns the number of nodes.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// LineSize returns the coherency unit in bytes.
func (m *Machine) LineSize() int { return m.cfg.LineSize }

// Alloc reserves n consecutive cache lines of shared memory and returns the
// first LineID. Allocation is a simple bump pointer; freed regions are not
// reused (database structures in this reproduction live for the life of the
// machine). Alloc panics if the machine is out of lines, which indicates a
// mis-sized Config rather than a runtime condition.
func (m *Machine) Alloc(n int) LineID {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	base := m.frontier()
	if int(base)+n > len(m.lines) {
		panic(fmt.Sprintf("machine: out of shared memory (%d lines in use, %d requested, %d total)",
			base, n, len(m.lines)))
	}
	m.next.Store(int64(base) + int64(n))
	return base
}

// Alive reports whether node n is up. Lock-free, so it is safe to call even
// from code running under a pre-transition callback.
func (m *Machine) Alive(n NodeID) bool {
	return n >= 0 && int(n) < m.cfg.Nodes && m.aliveMask.Load()&(1<<uint(n)) != 0
}

// aliveCount returns the number of live nodes. Lock-free.
func (m *Machine) aliveCount() int {
	return bits.OnesCount64(m.aliveMask.Load())
}

// setHooks applies a copy-on-write mutation to the hook set.
func (m *Machine) setHooks(mut func(*hookSet)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	hk := *m.hooks.Load()
	mut(&hk)
	m.hooks.Store(&hk)
}

// SetPreTransition installs the coherency-event callback used by triggered
// Stable LBM. Passing nil removes it.
func (m *Machine) SetPreTransition(f PreTransitionFunc) {
	m.setHooks(func(hk *hookSet) { hk.preTransition = f })
}

// SetTransitionFault installs the fault-injection hook consulted after every
// coherency transition. Passing nil removes it.
func (m *Machine) SetTransitionFault(f TransitionFaultFunc) {
	m.setHooks(func(hk *hookSet) { hk.transitionFault = f })
}

// SetCrashNotify installs the crash callback invoked (with every stripe
// held — the machine fully quiesced) whenever nodes actually go down.
// Passing nil removes it.
func (m *Machine) SetCrashNotify(f func(CrashReport)) {
	m.setHooks(func(hk *hookSet) { hk.crashNotify = f })
}

// SetInstallGate installs (or, with nil, removes) the install veto hook.
// See InstallGateFunc for the concurrency contract.
func (m *Machine) SetInstallGate(f InstallGateFunc) {
	m.setHooks(func(hk *hookSet) { hk.installGate = f })
}

// SetSchedNote installs (or, with nil, removes) the schedule-recorder
// annotation hook. See SchedNoteFunc for the concurrency contract.
func (m *Machine) SetSchedNote(f SchedNoteFunc) {
	m.setHooks(func(hk *hookSet) { hk.schedNote = f })
}

// schedNote emits a schedule annotation if a recorder hook is attached.
func (m *Machine) schedNote(nd NodeID, site string, l LineID) {
	if f := m.hooks.Load().schedNote; f != nil {
		f(nd, site, l)
	}
}

// SetHooks publishes the observability consumers the machine feeds: the
// observer (coherency transitions, line-lock latencies and waits with their
// holder node, trigger fires, crashes) and the stripe profiler (every stripe
// acquisition, hold and condvar sleep; it must be sized with at least
// StripeCount stripes). Pass nils to detach. No consumer may call back into
// the Machine. Swapping mid-run is safe: a critical section straddling the
// swap accounts only the half it saw.
func (m *Machine) SetHooks(o *obs.Observer, p *prof.StripeProf) {
	m.setHooks(func(hk *hookSet) { hk.obs, hk.prof = o, p })
}

// trace records an instant event at node nd's current simulated time. Safe
// to call with or without stripe locks held.
func (m *Machine) trace(k obs.Kind, nd NodeID, a, b int64) {
	hk := m.hooks.Load()
	if hk.obs == nil {
		return
	}
	var sim int64
	if nd >= 0 && int(nd) < len(m.nodes) {
		sim = atomic.LoadInt64(&m.nodes[nd].clock)
	}
	hk.obs.Instant(k, int32(nd), sim, a, b)
}

// SetActive sets or clears the per-line "contains active data" bit
// (section 5.2). The caller should hold the line (via line lock or
// exclusivity); the machine does not check.
func (m *Machine) SetActive(l LineID, on bool) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	var sec Section
	sec.at(m, NoNode, l)
	sec.SetActive(on)
	sec.Yield()
	return nil
}

// Active reports the line's active-data bit.
func (m *Machine) Active(l LineID) bool {
	if l < 0 || int(l) >= len(m.lines) {
		return false
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	return m.lines[l].active
}

// Clock returns node n's simulated clock in nanoseconds. It is lock-free,
// so it is safe to call even from code running under a pre-transition
// callback (which holds the line's stripe lock).
func (m *Machine) Clock(n NodeID) int64 {
	if n < 0 || int(n) >= len(m.nodes) {
		return 0
	}
	return atomic.LoadInt64(&m.nodes[n].clock)
}

// MaxClock returns the maximum simulated clock across nodes: the simulated
// makespan of the run so far. Lock-free, like Clock.
func (m *Machine) MaxClock() int64 {
	var max int64
	for i := range m.nodes {
		if c := atomic.LoadInt64(&m.nodes[i].clock); c > max {
			max = c
		}
	}
	return max
}

// AdvanceClock charges d simulated nanoseconds to node n. Database layers
// use it for work that happens outside the machine proper (disk I/O, log
// forces, message passing). Lock-free.
func (m *Machine) AdvanceClock(n NodeID, d int64) {
	if d <= 0 {
		return
	}
	if n >= 0 && int(n) < len(m.nodes) {
		atomic.AddInt64(&m.nodes[n].clock, d)
	}
}

// checkLine validates a line id.
func (m *Machine) checkLine(l LineID) error {
	if l < 0 || int(l) >= len(m.lines) {
		return fmt.Errorf("%w: line %d of %d", ErrBadAddress, l, len(m.lines))
	}
	return nil
}

// checkRange validates a byte range within a line.
func (m *Machine) checkRange(l LineID, off, n int) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	if off < 0 || n < 0 || off+n > m.cfg.LineSize {
		return fmt.Errorf("%w: [%d,%d) of %d-byte line", ErrBadAddress, off, off+n, m.cfg.LineSize)
	}
	return nil
}

// fire invokes the pre-transition callback if the line's active bit is set,
// for a transition that takes the line from node from to the section's node,
// which is charged the returned cost. On success the active bit is cleared,
// as the paper's section 5.2 hardware extension specifies ("log forces would
// clear the bits of all associated cache lines"): the callback has made the
// line's pending log records stable, so later transitions need no further
// forces until the line is updated again. Called with the line's stripe held.
func (h *Section) fire(kind EventKind, from NodeID) (int64, error) {
	if !h.ln.active || h.hk.preTransition == nil {
		return 0, nil
	}
	// The callback reads the acquiring node's clock (lock-free): show it the
	// charges of the steps before this one.
	h.publish()
	cost, err := h.hk.preTransition(Event{Line: h.l, Kind: kind, From: from, To: h.nd})
	h.clock += cost
	atomic.AddInt64(&h.m.global.TriggerFires, 1)
	h.trace(obs.KindTriggerFire, h.nd, int64(h.l), int64(kind))
	if err == nil {
		h.ln.active = false
	}
	return cost, err
}
