// Package waterfall is the per-transaction causal latency decomposition:
// every transaction accumulates a waterfall of simulated-time segments —
// line-lock waits (with the holder's txn id, so convoys are explainable),
// record-lock waits, page-fetch waits, log-append markers, log-force waits,
// recovery-freeze stalls, undo time, and the pure-compute residue — fed by
// the engine's events alone (OnEvent, a sink of the attached hook set): the
// transaction lifecycle instants open and close a waterfall, the operation
// brackets (KindOpStart/KindOpEnd) delimit the compute residue, and waits
// arrive as their own events. A bounded tail sampler keeps the K slowest
// completed waterfalls per sim-time window plus a deterministic 1-in-N
// reservoir, and links them as exemplars from the commit-latency histogram's
// log2 buckets.
//
// Like the obs/audit layers, the recorder is always compiled and off by
// default: every hot-path method is nil-receiver safe and allocation-free on
// the nil path, so callers hold a possibly-nil *Recorder and call it
// unconditionally. internal/obs exposes it over HTTP/flight dumps through the
// obs.WaterfallSource interface and so must not import it.
package waterfall

import (
	"sync"
	"sync/atomic"
	"time"

	"smdb/internal/obs"
)

// base pins the monotonic epoch used for recovery-progress rates.
var base = time.Now()

// now returns monotonic host nanoseconds since process start (wall rates for
// the recovery-progress observer; everything else in this package is sim time).
func now() int64 { return int64(time.Since(base)) }

// Outcome is how a transaction's waterfall ended.
type Outcome uint8

const (
	OutcomeLive Outcome = iota
	OutcomeCommitted
	OutcomeAborted
	OutcomeCrashed
)

var outcomeNames = [...]string{"live", "committed", "aborted", "crashed"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Segment is one attributed slice of a transaction's life. Start/Dur are
// simulated nanoseconds; Detail is the cause-specific subject (line id,
// page id, LSN, or lock name hash) and Holder the blocking transaction for
// lock/line waits (0 = unknown).
type Segment struct {
	Cause  obs.Cause `json:"cause_id"`
	Start  int64     `json:"start"`
	Dur    int64     `json:"dur"`
	Detail int64     `json:"detail,omitempty"`
	Holder int64     `json:"holder,omitempty"`
}

// Waterfall is one transaction's completed (or in-flight) decomposition.
type Waterfall struct {
	Txn      int64   `json:"txn"`
	Node     int32   `json:"node"`
	Outcome  Outcome `json:"outcome_id"`
	BeginSim int64   `json:"begin_sim"`
	EndSim   int64   `json:"end_sim"`
	// ByCause sums segment durations per cause (compute residue included),
	// so attribution survives even when Segments overflowed.
	ByCause [obs.NumCauses]int64 `json:"-"`
	// Segments is the bounded ordered trace; Dropped counts overflow.
	Segments []Segment `json:"segments"`
	Dropped  int       `json:"dropped,omitempty"`
	// Reservoir marks waterfalls retained by the deterministic 1-in-N
	// sampler rather than (or in addition to) the per-window top-K.
	Reservoir bool `json:"reservoir,omitempty"`
}

// Latency is the transaction's total measured sim latency.
func (w *Waterfall) Latency() int64 { return w.EndSim - w.BeginSim }

// Attributed sums every cause bucket.
func (w *Waterfall) Attributed() int64 {
	var t int64
	for _, v := range w.ByCause {
		t += v
	}
	return t
}

// Fixed bounds of the recorder and tail sampler.
const (
	// retain caps the reservoir length (FIFO eviction).
	retain = 256
	// windowNS is the tail sampler's window width: 1ms of simulated time.
	windowNS = 1_000_000
	// windows sizes the top-K windows' ring (obs.WindowRing); older
	// windows are evicted whole. Windows whose ids differ by a multiple of
	// it share a slot, so sparse ids keep fewer windows than slots: 128
	// keep every window of E22's schedule.
	windows = 128
	// sampleN: the reservoir keeps every transaction whose id hashes to 0
	// mod sampleN — 1 in 64, deterministic across replays by construction.
	sampleN = 64
	// maxSegments caps one transaction's recorded segments (ByCause keeps
	// counting past the cap; Dropped counts the overflow).
	maxSegments = 96
)

// Config sizes the recorder and tail sampler. Zero values take defaults.
type Config struct {
	// TopK is the number of slowest completed waterfalls kept per window.
	TopK int
	// Nodes sizes the per-node current/last-transaction tables (default 64).
	Nodes int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	return c
}

// liveTxn is one in-flight transaction's accumulating state.
type liveTxn struct {
	wf Waterfall
	// opStart/opWaits implement the compute residue: closing the outermost
	// bracket charges (sim − opStart) − opWaits to opCause (CauseCompute for
	// ordinary operations, CauseUndo for rollback), clamped at zero.
	opStart int64
	opWaits int64
	opDepth int32
	opCause obs.Cause
}

// txnSpan is a transaction's life on a node: Begin to its latest bracket's end.
type txnSpan struct{ txn, begin, end int64 }

// Recorder accumulates per-transaction waterfalls and tail-samples the
// completed ones. A nil *Recorder is the disabled recorder: every method
// no-ops without allocating.
type Recorder struct {
	cfg Config

	mu sync.Mutex
	// cur[node] is the txn running an instrumented operation on that node —
	// how events, which carry only a node id, resolve onto a transaction;
	// last[node] the txn that last closed one there (see holderLocked).
	cur  []int64
	last []txnSpan
	live map[int64]*liveTxn
	// slowest holds, per sim-time window, its K slowest completed
	// waterfalls, latency descending (ties broken by ascending txn id, for
	// determinism).
	slowest *obs.WindowRing[[]*Waterfall]
	reserve []*Waterfall // deterministic 1-in-N reservoir, FIFO-bounded
	// sampleN is the reservoir's N: the constant sampleN, except in the
	// golden fixtures, which keep every transaction.
	sampleN uint64

	// exemplars links the commit-latency histogram's log2 buckets to recent
	// slow-sampled txn ids (same bucketing as obs.Histogram).
	exemplars [64][4]int64
	exemplarN [64]int

	// Totals across every completed transaction, for coverage and the
	// Prometheus smdb_txn_wait_ns{cause=...} counters.
	byCause   [obs.NumCauses]atomic.Int64
	completed atomic.Int64
	totalLat  atomic.Int64
	totalAttr atomic.Int64
	dropped   atomic.Int64 // segments dropped past maxSegments

	progress *Progress
}

// New allocates an enabled recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		cur:      make([]int64, cfg.Nodes),
		last:     make([]txnSpan, cfg.Nodes),
		live:     make(map[int64]*liveTxn),
		slowest:  obs.NewWindowRing[[]*Waterfall](windowNS, windows, nil),
		sampleN:  sampleN,
		progress: newProgress(),
	}
}

// Progress returns the recovery-progress observer (nil when disabled).
func (r *Recorder) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.progress
}

// OnEvent folds one engine event. A transaction's begin opens its waterfall
// and its commit or abort closes it (and any bracket still open); operation
// brackets set the node's current-transaction register, which is how events
// carrying only a node id resolve onto a transaction. A line-lock wait or a
// disk fetch is a wait of the node's current transaction (see nodeWait); a
// log append is a zero-length marker on the appending transaction's
// waterfall (appends cost no simulated time; the markers carry ordering); a
// crash drops every live waterfall of the crashed node — its control state
// is gone, and recovery settles those transactions without their
// accumulating goroutines. Recovery's events go to the progress observer.
func (r *Recorder) OnEvent(e obs.Event) {
	if r == nil {
		return
	}
	switch e.Kind {
	case obs.KindTxnBegin:
		r.mu.Lock()
		r.live[e.A] = &liveTxn{wf: Waterfall{Txn: e.A, Node: e.Node, BeginSim: e.Sim}}
		r.mu.Unlock()
	case obs.KindOpStart:
		r.opStart(e.A, e.Node, e.Sim, obs.Cause(e.B))
	case obs.KindOpEnd:
		r.mu.Lock()
		r.opEndLocked(e.A, e.Node, e.Sim)
		r.mu.Unlock()
	case obs.KindTxnCommit:
		r.end(e, OutcomeCommitted)
	case obs.KindTxnAbort:
		r.end(e, OutcomeAborted)
	case obs.KindTxnWait:
		r.addWait(e.A, e.Node, obs.Cause(e.B), e.Sim, e.Dur, e.C)
	case obs.KindLineLockWait:
		r.nodeWait(e, obs.CauseLineWait)
	case obs.KindPageFetch:
		r.nodeWait(e, obs.CauseFetch)
	case obs.KindWALAppend:
		if e.C != 0 {
			r.addWait(e.C, e.Node, obs.CauseLogAppend, e.Sim, 0, e.A)
		}
	case obs.KindCrash:
		r.mu.Lock()
		if e.Node >= 0 && int(e.Node) < len(r.cur) {
			r.cur[e.Node] = 0
		}
		for id, lt := range r.live {
			if lt.wf.Node == e.Node {
				delete(r.live, id)
			}
		}
		r.mu.Unlock()
	case obs.KindProgress, obs.KindPhase, obs.KindRecovery:
		r.progress.onEvent(e)
	}
}

// opStart marks txn entering an instrumented operation on node: sets the
// node's current-txn register and opens the residue bracket, charged to c.
// Reentrant (txn layer over DB layer): only the outermost bracket counts.
func (r *Recorder) opStart(txn int64, node int32, sim int64, c obs.Cause) {
	r.mu.Lock()
	if int(node) < len(r.cur) {
		r.cur[node] = txn
	}
	if lt := r.live[txn]; lt != nil {
		if lt.opDepth == 0 {
			lt.opStart = sim
			lt.opWaits = 0
			lt.opCause = c
		}
		lt.opDepth++
	}
	r.mu.Unlock()
}

// opEndLocked closes one level of txn's bracket at sim. The outermost one
// charges the unexplained residue of its sim time to the bracket's cause and
// clears the node's current-txn register. Caller holds r.mu.
func (r *Recorder) opEndLocked(txn int64, node int32, sim int64) {
	if lt := r.live[txn]; lt != nil && lt.opDepth > 0 {
		if lt.opDepth--; lt.opDepth > 0 {
			return
		}
		if residue := sim - lt.opStart - lt.opWaits; residue > 0 {
			r.addSegmentLocked(lt, Segment{Cause: lt.opCause, Start: lt.opStart, Dur: residue})
		}
		if int(node) < len(r.last) {
			r.last[node] = txnSpan{txn, lt.wf.BeginSim, sim}
		}
	}
	if int(node) < len(r.cur) && r.cur[node] == txn {
		r.cur[node] = 0
	}
}

// addWait records one attributed wait segment for txn (0: node's current
// transaction). start is the sim time the wait began, dur its sim length.
// Zero and negative durations are dropped, except the zero-length
// CauseLogAppend markers that order the trace.
func (r *Recorder) addWait(txn int64, node int32, c obs.Cause, start, dur, detail int64) {
	if dur <= 0 && !(dur == 0 && c == obs.CauseLogAppend) {
		return
	}
	r.mu.Lock()
	if txn == 0 && node >= 0 && int(node) < len(r.cur) {
		txn = r.cur[node]
	}
	if lt := r.live[txn]; lt != nil {
		r.addSegmentLocked(lt, Segment{Cause: c, Start: start, Dur: dur, Detail: detail})
		if lt.opDepth > 0 {
			lt.opWaits += dur
		}
	}
	r.mu.Unlock()
}

// nodeWait attributes the wait e reports (Dur sim-ns ending at Sim; detail A)
// to its node's current transaction — only while that transaction has an
// operation bracket open, so recovery's own line traffic never pollutes a
// stalled survivor's waterfall.
func (r *Recorder) nodeWait(e obs.Event, c obs.Cause) {
	if e.Dur <= 0 || int(e.Node) >= len(r.cur) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if lt := r.live[r.cur[e.Node]]; lt != nil && lt.opDepth > 0 {
		s := Segment{Cause: c, Start: e.Sim - e.Dur, Dur: e.Dur, Detail: e.A}
		if c == obs.CauseLineWait {
			s.Holder = r.holderLocked(e)
		}
		if s.Holder == lt.wf.Txn {
			s.Holder = 0
		}
		r.addSegmentLocked(lt, s)
		lt.opWaits += e.Dur
	}
}

// holderLocked names the transaction that held the line of line wait e, on
// node e.C: the one with an operation open there, else the last to close one
// there. A contended wait (B = 0) ended the moment its holder released. A
// wait queued behind a release at sim instant B may come long after it in
// host order, so it names a transaction whose life there — from Begin to the
// close of its latest bracket — spanned B. None for the waiter's own node,
// whose transactions the machine cannot tell apart. Caller holds r.mu.
func (r *Recorder) holderLocked(e obs.Event) int64 {
	h, rel := e.C, e.B
	if h < 0 || h == int64(e.Node) || h >= int64(len(r.cur)) {
		return 0
	}
	if txn := r.cur[h]; txn != 0 {
		if lt := r.live[txn]; lt != nil && lt.opDepth > 0 && (rel == 0 || lt.wf.BeginSim < rel) {
			return txn
		}
	}
	if l := r.last[h]; rel == 0 || (l.begin < rel && rel <= l.end) {
		return l.txn
	}
	return 0
}

// addSegmentLocked appends a segment under r.mu, enforcing the per-txn cap.
func (r *Recorder) addSegmentLocked(lt *liveTxn, s Segment) {
	lt.wf.ByCause[s.Cause] += s.Dur
	if len(lt.wf.Segments) < maxSegments {
		lt.wf.Segments = append(lt.wf.Segments, s)
	} else {
		lt.wf.Dropped++
		r.dropped.Add(1)
	}
}

// end closes e's transaction's waterfall at e.Sim with outcome oc (a bracket
// still open closes there too) and feeds it to the tail sampler. Unknown ids
// (crash-settled transactions, double ends) no-op.
func (r *Recorder) end(e obs.Event, oc Outcome) {
	r.mu.Lock()
	lt := r.live[e.A]
	if lt != nil && lt.opDepth > 1 {
		lt.opDepth = 1 // the outermost bracket closes here
	}
	r.opEndLocked(e.A, e.Node, e.Sim)
	if lt == nil {
		r.mu.Unlock()
		return
	}
	delete(r.live, e.A)
	lt.wf.EndSim = e.Sim
	lt.wf.Outcome = oc
	r.mu.Unlock()

	for c, v := range lt.wf.ByCause {
		if v > 0 {
			r.byCause[c].Add(v)
		}
	}
	r.completed.Add(1)
	r.totalLat.Add(lt.wf.Latency())
	r.totalAttr.Add(lt.wf.Attributed())

	r.mu.Lock()
	r.sampleLocked(&lt.wf)
	r.mu.Unlock()
}

// reservoirHash is the deterministic 1-in-N membership test: FNV-1a over the
// txn id's bytes. Pure function of the id, so record and replay runs sample
// identical transactions.
func reservoirHash(txn int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(txn >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

// sampleLocked feeds one completed waterfall to the tail sampler.
func (r *Recorder) sampleLocked(w *Waterfall) {
	// Deterministic reservoir: membership depends only on the txn id.
	if reservoirHash(w.Txn)%r.sampleN == 0 {
		w.Reservoir = true
		r.reserve = append(r.reserve, w)
		if len(r.reserve) > retain {
			r.reserve = r.reserve[1:]
		}
	}

	// Per-window top-K slowest.
	win := r.slowest.At(w.EndSim)
	if win == nil {
		return // window already evicted; late completion is dropped
	}
	// Insert sorted: latency desc, txn asc (deterministic under replay).
	lat := w.Latency()
	at := len(*win)
	for i, s := range *win {
		if lat > s.Latency() || (lat == s.Latency() && w.Txn < s.Txn) {
			at = i
			break
		}
	}
	if at >= r.cfg.TopK {
		return
	}
	*win = append(*win, nil)
	copy((*win)[at+1:], (*win)[at:])
	(*win)[at] = w
	if len(*win) > r.cfg.TopK {
		*win = (*win)[:r.cfg.TopK]
	}
	// Exemplar: link this slow sample from its commit-latency log2 bucket.
	b := obs.BucketOf(lat)
	n := r.exemplarN[b] % len(r.exemplars[b])
	r.exemplars[b][n] = w.Txn
	r.exemplarN[b]++
}

// Totals returns the per-cause attributed sim-ns across all completed
// transactions, in Cause order.
func (r *Recorder) Totals() [obs.NumCauses]int64 {
	var out [obs.NumCauses]int64
	if r == nil {
		return out
	}
	for i := range out {
		out[i] = r.byCause[i].Load()
	}
	return out
}

// Coverage returns attributed/total sim latency across completed
// transactions (1.0 when nothing completed), plus the raw sums.
func (r *Recorder) Coverage() (cov float64, attributed, total int64) {
	if r == nil {
		return 1, 0, 0
	}
	attributed = r.totalAttr.Load()
	total = r.totalLat.Load()
	if total <= 0 {
		return 1, attributed, total
	}
	cov = float64(attributed) / float64(total)
	return cov, attributed, total
}

// Completed returns how many waterfalls have ended.
func (r *Recorder) Completed() int64 {
	if r == nil {
		return 0
	}
	return r.completed.Load()
}

// Live returns how many waterfalls are currently open.
func (r *Recorder) Live() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Slow returns every retained waterfall — per-window top-K (ascending
// window, then latency desc) followed by reservoir-only samples — capped at
// max entries (0 = no cap). The returned waterfalls are shared, completed
// (immutable) records.
func (r *Recorder) Slow(max int) []*Waterfall {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Waterfall
	seen := map[int64]bool{}
	r.slowest.Each(func(_ int64, win *[]*Waterfall) {
		for _, w := range *win {
			if !seen[w.Txn] {
				seen[w.Txn] = true
				out = append(out, w)
			}
		}
	})
	for _, w := range r.reserve {
		if !seen[w.Txn] {
			seen[w.Txn] = true
			out = append(out, w)
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Lookup returns the retained waterfall for txn, nil when not sampled.
func (r *Recorder) Lookup(txn int64) *Waterfall {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var found *Waterfall
	r.slowest.Each(func(_ int64, win *[]*Waterfall) {
		for _, w := range *win {
			if found == nil && w.Txn == txn {
				found = w
			}
		}
	})
	if found != nil {
		return found
	}
	for _, w := range r.reserve {
		if w.Txn == txn {
			return w
		}
	}
	return nil
}

// Exemplars returns the histogram-bucket → recent slow txn id links, for
// buckets that have any (bucket i covers latencies in (2^(i-1), 2^i]).
func (r *Recorder) Exemplars() map[int][]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]int64{}
	for b := range r.exemplars {
		n := r.exemplarN[b]
		if n == 0 {
			continue
		}
		k := n
		if k > len(r.exemplars[b]) {
			k = len(r.exemplars[b])
		}
		ids := make([]int64, 0, k)
		for i := 0; i < k; i++ {
			ids = append(ids, r.exemplars[b][i])
		}
		out[b] = ids
	}
	return out
}
