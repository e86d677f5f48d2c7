// Package prof is the contention & cost-attribution profiler: per-stripe
// lock counters for the simulated machine's striped line directory, and
// per-worker per-phase cost accounting for the parallel restart-recovery
// pipeline. It is always compiled and off by default — every hot-path method
// is nil-receiver safe and allocation-free, so callers hold a possibly-nil
// pointer and call unconditionally.
//
// The package deliberately imports nothing but the standard library (and no
// other internal package): internal/machine and internal/recovery both
// import it, and internal/obs exposes it over HTTP/flight dumps through the
// obs.ProfSource interface, so any inward dependency would cycle. Phases are
// keyed by their obs.Phase string form for the same reason.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// base pins the profiler's monotonic epoch at process start.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. It is the only
// clock the profiler uses: cheap (one monotonic read, no allocation) and
// immune to wall-clock steps.
func Now() int64 { return int64(time.Since(base)) }

// stripeBlock is one stripe's counter block. Each block is padded to 128
// bytes (two cache lines on common x86/arm parts, covering the spatial
// prefetcher's pair granularity) so that two cores hammering adjacent
// stripes never false-share a line: the whole point of striping the
// directory lock is independence, and the profiler must not quietly couple
// the stripes back together.
type stripeBlock struct {
	acquires   atomic.Int64
	contended  atomic.Int64
	waitNS     atomic.Int64
	holdNS     atomic.Int64
	condWaits  atomic.Int64
	condWaitNS atomic.Int64
	wakeups    atomic.Int64
	_          [128 - 7*8]byte
}

// StripeProf holds per-stripe lock-contention counters. A nil *StripeProf
// is the disabled profiler: all methods no-op.
type StripeProf struct {
	blocks []stripeBlock
}

// NewStripeProf allocates counters for the given stripe count.
func NewStripeProf(stripes int) *StripeProf {
	return &StripeProf{blocks: make([]stripeBlock, stripes)}
}

// LockAcquired records one stripe-mutex acquisition; contended acquisitions
// additionally carry the nanoseconds spent blocked.
func (p *StripeProf) LockAcquired(si int, contended bool, waitNS int64) {
	if p == nil || si < 0 || si >= len(p.blocks) {
		return
	}
	b := &p.blocks[si]
	b.acquires.Add(1)
	if contended {
		b.contended.Add(1)
		b.waitNS.Add(waitNS)
	}
}

// LockHeld charges a completed critical section's hold time to the stripe.
func (p *StripeProf) LockHeld(si int, holdNS int64) {
	if p == nil || si < 0 || si >= len(p.blocks) {
		return
	}
	p.blocks[si].holdNS.Add(holdNS)
}

// CondWait records one condvar sleep on the stripe and its duration.
func (p *StripeProf) CondWait(si int, waitNS int64) {
	if p == nil || si < 0 || si >= len(p.blocks) {
		return
	}
	b := &p.blocks[si]
	b.condWaits.Add(1)
	b.condWaitNS.Add(waitNS)
}

// Wakeup records one broadcast on the stripe's condvar.
func (p *StripeProf) Wakeup(si int) {
	if p == nil || si < 0 || si >= len(p.blocks) {
		return
	}
	p.blocks[si].wakeups.Add(1)
}

// StripeCounters is one stripe's counter snapshot (Stripe = -1 for totals).
type StripeCounters struct {
	Stripe     int   `json:"stripe"`
	Acquires   int64 `json:"acquires"`
	Contended  int64 `json:"contended"`
	WaitNS     int64 `json:"wait_ns"`
	HoldNS     int64 `json:"hold_ns"`
	CondWaits  int64 `json:"cond_waits"`
	CondWaitNS int64 `json:"cond_wait_ns"`
	Wakeups    int64 `json:"wakeups"`
}

func (c *StripeCounters) sub(prev StripeCounters) {
	c.Acquires -= prev.Acquires
	c.Contended -= prev.Contended
	c.WaitNS -= prev.WaitNS
	c.HoldNS -= prev.HoldNS
	c.CondWaits -= prev.CondWaits
	c.CondWaitNS -= prev.CondWaitNS
	c.Wakeups -= prev.Wakeups
}

// StripeSnapshot is a point-in-time copy of every stripe's counters,
// indexed by stripe id.
type StripeSnapshot struct {
	Stripes []StripeCounters `json:"stripes"`
}

// Snapshot copies the live counters. Safe to call concurrently with the hot
// paths; each counter is read atomically (the snapshot as a whole is not a
// consistent cut, which is fine for profiling).
func (p *StripeProf) Snapshot() StripeSnapshot {
	if p == nil {
		return StripeSnapshot{}
	}
	out := StripeSnapshot{Stripes: make([]StripeCounters, len(p.blocks))}
	for i := range p.blocks {
		b := &p.blocks[i]
		out.Stripes[i] = StripeCounters{
			Stripe:     i,
			Acquires:   b.acquires.Load(),
			Contended:  b.contended.Load(),
			WaitNS:     b.waitNS.Load(),
			HoldNS:     b.holdNS.Load(),
			CondWaits:  b.condWaits.Load(),
			CondWaitNS: b.condWaitNS.Load(),
			Wakeups:    b.wakeups.Load(),
		}
	}
	return out
}

// Sub returns the per-stripe delta s − prev (an interval's worth of
// counters, e.g. across one recovery).
func (s StripeSnapshot) Sub(prev StripeSnapshot) StripeSnapshot {
	out := StripeSnapshot{Stripes: make([]StripeCounters, len(s.Stripes))}
	copy(out.Stripes, s.Stripes)
	for i := range out.Stripes {
		if i < len(prev.Stripes) {
			out.Stripes[i].sub(prev.Stripes[i])
		}
	}
	return out
}

// Totals sums the snapshot across stripes (Stripe = -1 in the result).
func (s StripeSnapshot) Totals() StripeCounters {
	t := StripeCounters{Stripe: -1}
	for i := range s.Stripes {
		c := &s.Stripes[i]
		t.Acquires += c.Acquires
		t.Contended += c.Contended
		t.WaitNS += c.WaitNS
		t.HoldNS += c.HoldNS
		t.CondWaits += c.CondWaits
		t.CondWaitNS += c.CondWaitNS
		t.Wakeups += c.Wakeups
	}
	return t
}

// Active counts stripes with at least one acquisition.
func (s StripeSnapshot) Active() int {
	n := 0
	for i := range s.Stripes {
		if s.Stripes[i].Acquires > 0 {
			n++
		}
	}
	return n
}

// TopContended returns the k most contended touched stripes, ordered by
// contended acquisitions, then cumulative wait, then total acquisitions
// (so a contention-free run still names its hottest stripes).
func (s StripeSnapshot) TopContended(k int) []StripeCounters {
	var touched []StripeCounters
	for i := range s.Stripes {
		if s.Stripes[i].Acquires > 0 {
			touched = append(touched, s.Stripes[i])
		}
	}
	sort.Slice(touched, func(i, j int) bool {
		a, b := touched[i], touched[j]
		if a.Contended != b.Contended {
			return a.Contended > b.Contended
		}
		if a.WaitNS != b.WaitNS {
			return a.WaitNS > b.WaitNS
		}
		if a.Acquires != b.Acquires {
			return a.Acquires > b.Acquires
		}
		return a.Stripe < b.Stripe
	})
	if len(touched) > k {
		touched = touched[:k]
	}
	return touched
}

// TaskMeter accumulates one worker's costs during a fan-out. The fan-out
// driver owns BusyNS/Tasks via AddTask; the task body reports its data
// volume via AddRecords/AddBytes. A nil *TaskMeter (profiler off) no-ops.
type TaskMeter struct {
	BusyNS  int64
	Tasks   int64
	Records int64
	Bytes   int64
}

// AddTask charges one completed task's duration to the worker.
func (t *TaskMeter) AddTask(busyNS int64) {
	if t == nil {
		return
	}
	t.BusyNS += busyNS
	t.Tasks++
}

// AddRecords counts records (redo log records, lock entries, tag-scan hits)
// processed by the current task.
func (t *TaskMeter) AddRecords(n int) {
	if t == nil {
		return
	}
	t.Records += int64(n)
}

// AddBytes counts payload bytes moved by the current task.
func (t *TaskMeter) AddBytes(n int) {
	if t == nil {
		return
	}
	t.Bytes += int64(n)
}

// WorkerCell is one worker's accumulated cost within one phase.
type WorkerCell struct {
	Worker  int   `json:"worker"`
	BusyNS  int64 `json:"busy_ns"`
	WaitNS  int64 `json:"wait_ns"`
	Tasks   int64 `json:"tasks"`
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

func (c *WorkerCell) sub(prev WorkerCell) {
	c.BusyNS -= prev.BusyNS
	c.WaitNS -= prev.WaitNS
	c.Tasks -= prev.Tasks
	c.Records -= prev.Records
	c.Bytes -= prev.Bytes
}

// PhaseProf is one pipeline phase's accumulated fan-out profile.
// WorkerWallNS is Σ over fan-outs of (workers × wall): with it, the summed
// worker busy time can be rescaled to wall-clock terms even when different
// fan-outs of the same phase ran with different worker counts.
type PhaseProf struct {
	Phase        string       `json:"phase"`
	Fanouts      int64        `json:"fanouts"`
	WallNS       int64        `json:"wall_ns"`
	MergeNS      int64        `json:"merge_ns"`
	WorkerWallNS int64        `json:"worker_wall_ns"`
	Workers      []WorkerCell `json:"workers"`
}

// BusyNS sums worker busy time across the phase.
func (p PhaseProf) BusyNS() int64 {
	var busy int64
	for i := range p.Workers {
		busy += p.Workers[i].BusyNS
	}
	return busy
}

// BusyWallNS rescales the summed worker busy time to the wall-clock axis:
// WallNS × (Σ busy / WorkerWallNS). The complement (WallNS − BusyWallNS)
// is the phase's wall-scale idle (load-imbalance) time.
func (p PhaseProf) BusyWallNS() int64 {
	if p.WorkerWallNS <= 0 {
		return p.BusyNS()
	}
	return int64(float64(p.WallNS) * float64(p.BusyNS()) / float64(p.WorkerWallNS))
}

type phaseAgg struct {
	prof PhaseProf
}

// WorkerProf accumulates per-worker per-phase cost attribution for the
// parallel recovery pipeline. A nil *WorkerProf is the disabled profiler.
type WorkerProf struct {
	mu     sync.Mutex
	phases map[string]*phaseAgg
	order  []string
}

// NewWorkerProf allocates an empty worker profiler.
func NewWorkerProf() *WorkerProf {
	return &WorkerProf{phases: make(map[string]*phaseAgg)}
}

func (p *WorkerProf) aggLocked(phase string) *phaseAgg {
	a := p.phases[phase]
	if a == nil {
		a = &phaseAgg{prof: PhaseProf{Phase: phase}}
		p.phases[phase] = a
		p.order = append(p.order, phase)
	}
	return a
}

// RecordFanout folds one completed fan-out into the phase: wallNS is the
// fan-out's wall time, meters[w] each worker's accumulated task costs. Each
// worker's wait is the fan-out wall minus its busy time — time the worker
// spent idle at the task queue or parked at the end barrier.
func (p *WorkerProf) RecordFanout(phase string, wallNS int64, meters []TaskMeter) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.aggLocked(phase)
	a.prof.Fanouts++
	a.prof.WallNS += wallNS
	a.prof.WorkerWallNS += int64(len(meters)) * wallNS
	for w := range meters {
		for len(a.prof.Workers) <= w {
			a.prof.Workers = append(a.prof.Workers, WorkerCell{Worker: len(a.prof.Workers)})
		}
		c := &a.prof.Workers[w]
		m := &meters[w]
		wait := wallNS - m.BusyNS
		if wait < 0 {
			wait = 0
		}
		c.BusyNS += m.BusyNS
		c.WaitNS += wait
		c.Tasks += m.Tasks
		c.Records += m.Records
		c.Bytes += m.Bytes
	}
}

// AddMerge charges coordinator-side serial work (result concatenation,
// shard roll-up, dedupe) to the phase's merge bucket.
func (p *WorkerProf) AddMerge(phase string, ns int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aggLocked(phase).prof.MergeNS += ns
}

// WorkerSnapshot is a point-in-time copy of the per-phase attribution, in
// first-recorded phase order.
type WorkerSnapshot struct {
	Phases []PhaseProf `json:"phases"`
}

// Snapshot deep-copies the accumulated phases.
func (p *WorkerProf) Snapshot() WorkerSnapshot {
	if p == nil {
		return WorkerSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := WorkerSnapshot{}
	for _, name := range p.order {
		ph := p.phases[name].prof
		ws := make([]WorkerCell, len(ph.Workers))
		copy(ws, ph.Workers)
		ph.Workers = ws
		out.Phases = append(out.Phases, ph)
	}
	return out
}

// Sub returns the per-phase delta s − prev, dropping phases with no
// activity in the interval.
func (s WorkerSnapshot) Sub(prev WorkerSnapshot) WorkerSnapshot {
	idx := make(map[string]PhaseProf, len(prev.Phases))
	for _, p := range prev.Phases {
		idx[p.Phase] = p
	}
	out := WorkerSnapshot{}
	for _, p := range s.Phases {
		ws := make([]WorkerCell, len(p.Workers))
		copy(ws, p.Workers)
		p.Workers = ws
		if q, ok := idx[p.Phase]; ok {
			p.Fanouts -= q.Fanouts
			p.WallNS -= q.WallNS
			p.MergeNS -= q.MergeNS
			p.WorkerWallNS -= q.WorkerWallNS
			for i := range p.Workers {
				if i < len(q.Workers) {
					p.Workers[i].sub(q.Workers[i])
				}
			}
		}
		if p.Fanouts != 0 || p.WallNS != 0 || p.MergeNS != 0 {
			out.Phases = append(out.Phases, p)
		}
	}
	return out
}

// TotalWallNS sums fan-out wall time across phases.
func (s WorkerSnapshot) TotalWallNS() int64 {
	var t int64
	for _, p := range s.Phases {
		t += p.WallNS
	}
	return t
}

// TotalMergeNS sums coordinator merge time across phases.
func (s WorkerSnapshot) TotalMergeNS() int64 {
	var t int64
	for _, p := range s.Phases {
		t += p.MergeNS
	}
	return t
}

// Pair bundles the two profiler halves. A nil *Pair is the disabled
// profiler; it satisfies obs.ProfSource with "{"enabled": false}" output.
type Pair struct {
	Stripes *StripeProf
	Workers *WorkerProf
}

// NewPair allocates an enabled profiler pair for the given stripe count
// (pass machine.StripeCount).
func NewPair(stripes int) *Pair {
	return &Pair{Stripes: NewStripeProf(stripes), Workers: NewWorkerProf()}
}

// StripeDoc is the JSON body served at /prof/stripes (sans enabled flag).
type StripeDoc struct {
	Stripes      int              `json:"stripes"`
	Active       int              `json:"active"`
	Totals       StripeCounters   `json:"totals"`
	TopContended []StripeCounters `json:"top_contended"`
}

// Doc summarizes the snapshot: totals plus the topK most contended stripes.
func (s StripeSnapshot) Doc(topK int) StripeDoc {
	return StripeDoc{
		Stripes:      len(s.Stripes),
		Active:       s.Active(),
		Totals:       s.Totals(),
		TopContended: s.TopContended(topK),
	}
}

const disabledJSON = "{\"enabled\": false}\n"

func writeDoc(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProfStripes writes the /prof/stripes JSON document.
func (p *Pair) WriteProfStripes(w io.Writer) error {
	if p == nil || p.Stripes == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	return writeDoc(w, struct {
		Enabled bool `json:"enabled"`
		StripeDoc
	}{true, p.Stripes.Snapshot().Doc(16)})
}

// WriteProfWorkers writes the /prof/workers JSON document.
func (p *Pair) WriteProfWorkers(w io.Writer) error {
	if p == nil || p.Workers == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	return writeDoc(w, struct {
		Enabled bool        `json:"enabled"`
		Phases  []PhaseProf `json:"phases"`
	}{true, p.Workers.Snapshot().Phases})
}

// WriteProfJSON writes the combined document the flight recorder stores as
// prof.json.
func (p *Pair) WriteProfJSON(w io.Writer) error {
	if p == nil || (p.Stripes == nil && p.Workers == nil) {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	return writeDoc(w, struct {
		Enabled bool        `json:"enabled"`
		Stripes StripeDoc   `json:"stripes"`
		Workers []PhaseProf `json:"workers"`
	}{true, p.Stripes.Snapshot().Doc(16), p.Workers.Snapshot().Phases})
}

// WriteProfProm appends the profiler's Prometheus lines (stripe totals plus
// per-phase worker aggregates) in text exposition format.
func (p *Pair) WriteProfProm(w io.Writer) error {
	if p == nil || p.Stripes == nil {
		return nil
	}
	t := p.Stripes.Snapshot().Totals()
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"smdb_prof_stripe_acquires_total", "Stripe-lock acquisitions.", t.Acquires},
		{"smdb_prof_stripe_contended_total", "Contended stripe-lock acquisitions.", t.Contended},
		{"smdb_prof_stripe_wait_ns_total", "Nanoseconds blocked acquiring stripe locks.", t.WaitNS},
		{"smdb_prof_stripe_hold_ns_total", "Nanoseconds stripe locks were held.", t.HoldNS},
		{"smdb_prof_stripe_cond_waits_total", "Condvar sleeps on stripe locks.", t.CondWaits},
		{"smdb_prof_stripe_cond_wait_ns_total", "Nanoseconds slept on stripe condvars.", t.CondWaitNS},
		{"smdb_prof_stripe_wakeups_total", "Broadcast wakeups on stripe condvars.", t.Wakeups},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	snap := p.Workers.Snapshot()
	if len(snap.Phases) == 0 {
		return nil
	}
	families := []struct {
		name, help string
		v          func(PhaseProf) int64
	}{
		{"smdb_prof_worker_busy_ns_total", "Worker busy nanoseconds per recovery phase.", PhaseProf.BusyNS},
		{"smdb_prof_worker_wait_ns_total", "Worker wait nanoseconds per recovery phase.", func(p PhaseProf) int64 {
			var t int64
			for i := range p.Workers {
				t += p.Workers[i].WaitNS
			}
			return t
		}},
		{"smdb_prof_worker_tasks_total", "Tasks executed per recovery phase.", func(p PhaseProf) int64 {
			var t int64
			for i := range p.Workers {
				t += p.Workers[i].Tasks
			}
			return t
		}},
		{"smdb_prof_worker_records_total", "Records processed per recovery phase.", func(p PhaseProf) int64 {
			var t int64
			for i := range p.Workers {
				t += p.Workers[i].Records
			}
			return t
		}},
		{"smdb_prof_worker_bytes_total", "Payload bytes moved per recovery phase.", func(p PhaseProf) int64 {
			var t int64
			for i := range p.Workers {
				t += p.Workers[i].Bytes
			}
			return t
		}},
		{"smdb_prof_worker_merge_ns_total", "Coordinator merge nanoseconds per recovery phase.", func(p PhaseProf) int64 {
			return p.MergeNS
		}},
	}
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name); err != nil {
			return err
		}
		for _, ph := range snap.Phases {
			if _, err := fmt.Fprintf(w, "%s{phase=%q} %d\n", f.name, ph.Phase, f.v(ph)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report renders the human-readable profile: the top-k contended stripes
// and the per-phase / per-worker cost breakdown.
func (p *Pair) Report(k int) string {
	if p == nil || p.Stripes == nil {
		return "profiler disabled\n"
	}
	return RenderReport(p.Stripes.Snapshot(), p.Workers.Snapshot(), k)
}

// RenderReport formats a stripe + worker snapshot pair (e.g. a recovery
// interval's deltas) as the text report.
func RenderReport(ss StripeSnapshot, ws WorkerSnapshot, k int) string {
	var b sb
	b.printf("contention & cost-attribution profile\n")
	top := ss.TopContended(k)
	b.printf("top-%d contended stripes (of %d, %d active):\n", k, len(ss.Stripes), ss.Active())
	tw := b.table()
	fmt.Fprintf(tw, "  stripe\tacquires\tcontended\twait\thold\tcond-waits\tcond-wait\twakeups\n")
	for _, c := range top {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%s\t%s\t%d\t%s\t%d\n",
			c.Stripe, c.Acquires, c.Contended, FormatNS(c.WaitNS), FormatNS(c.HoldNS),
			c.CondWaits, FormatNS(c.CondWaitNS), c.Wakeups)
	}
	tw.Flush()
	if len(ws.Phases) == 0 {
		b.printf("no parallel fan-outs recorded\n")
		return b.String()
	}
	b.printf("per-phase fan-out profile:\n")
	tw = b.table()
	fmt.Fprintf(tw, "  phase\tfanouts\twall\tmerge\tworkers\tbusy\twait\ttasks\trecords\tbytes\n")
	workers := map[int]*WorkerCell{}
	var order []int
	for _, ph := range ws.Phases {
		var busy, wait, tasks, records, bytes int64
		for _, c := range ph.Workers {
			busy += c.BusyNS
			wait += c.WaitNS
			tasks += c.Tasks
			records += c.Records
			bytes += c.Bytes
			t := workers[c.Worker]
			if t == nil {
				t = &WorkerCell{Worker: c.Worker}
				workers[c.Worker] = t
				order = append(order, c.Worker)
			}
			t.BusyNS += c.BusyNS
			t.WaitNS += c.WaitNS
			t.Tasks += c.Tasks
			t.Records += c.Records
			t.Bytes += c.Bytes
		}
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%d\t%s\t%s\t%d\t%d\t%d\n",
			ph.Phase, ph.Fanouts, FormatNS(ph.WallNS), FormatNS(ph.MergeNS), len(ph.Workers),
			FormatNS(busy), FormatNS(wait), tasks, records, bytes)
	}
	tw.Flush()
	b.printf("per-worker totals (all phases):\n")
	tw = b.table()
	fmt.Fprintf(tw, "  worker\tbusy\twait\ttasks\trecords\tbytes\n")
	sort.Ints(order)
	for _, wid := range order {
		c := workers[wid]
		fmt.Fprintf(tw, "  w%d\t%s\t%s\t%d\t%d\t%d\n",
			c.Worker, FormatNS(c.BusyNS), FormatNS(c.WaitNS), c.Tasks, c.Records, c.Bytes)
	}
	tw.Flush()
	return b.String()
}

// FormatNS renders nanoseconds compactly (1.2µs / 3.4ms / 5.67s).
func FormatNS(ns int64) string {
	f := float64(ns)
	switch {
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", f/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", f/1e6)
	default:
		return fmt.Sprintf("%.2fs", f/1e9)
	}
}

// sb is a tiny string builder with a tabwriter shortcut.
type sb struct {
	buf []byte
}

func (b *sb) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}
func (b *sb) printf(format string, args ...any) { fmt.Fprintf(b, format, args...) }
func (b *sb) table() *tabwriter.Writer          { return tabwriter.NewWriter(b, 2, 2, 2, ' ', 0) }
func (b *sb) String() string                    { return string(b.buf) }
