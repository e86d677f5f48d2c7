// Package prof is the contention profiler: per-stripe lock counters for the
// simulated machine's striped line directory. It is always compiled and off
// by default — every hot-path method is nil-receiver safe and
// allocation-free, so callers hold a possibly-nil pointer and call
// unconditionally.
//
// The package deliberately imports nothing but the standard library (and no
// other internal package): internal/machine imports it, and internal/obs
// exposes it over HTTP/flight dumps through the obs.ProfSource interface, so
// any inward dependency would cycle.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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

// WriteProfStripes writes the /prof/stripes JSON document; a nil *StripeProf
// (the disabled profiler) writes {"enabled": false}.
func (p *StripeProf) WriteProfStripes(w io.Writer) error {
	if p == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	return writeDoc(w, struct {
		Enabled bool `json:"enabled"`
		StripeDoc
	}{true, p.Snapshot().Doc(16)})
}

// WriteProfJSON writes the document the flight recorder stores as prof.json.
func (p *StripeProf) WriteProfJSON(w io.Writer) error {
	if p == nil {
		_, err := io.WriteString(w, disabledJSON)
		return err
	}
	return writeDoc(w, struct {
		Enabled bool      `json:"enabled"`
		Stripes StripeDoc `json:"stripes"`
	}{true, p.Snapshot().Doc(16)})
}

// WriteProfProm appends the profiler's Prometheus lines (stripe totals) in
// text exposition format.
func (p *StripeProf) WriteProfProm(w io.Writer) error {
	if p == nil {
		return nil
	}
	t := p.Snapshot().Totals()
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
	return nil
}

// Report renders the human-readable profile: the top-k contended stripes.
func (p *StripeProf) Report(k int) string {
	if p == nil {
		return "profiler disabled\n"
	}
	ss := p.Snapshot()
	var b sb
	b.printf("contention profile\n")
	b.printf("top-%d contended stripes (of %d, %d active):\n", k, len(ss.Stripes), ss.Active())
	tw := b.table()
	fmt.Fprintf(tw, "  stripe\tacquires\tcontended\twait\thold\tcond-waits\tcond-wait\twakeups\n")
	for _, c := range ss.TopContended(k) {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%s\t%s\t%d\t%s\t%d\n",
			c.Stripe, c.Acquires, c.Contended, FormatNS(c.WaitNS), FormatNS(c.HoldNS),
			c.CondWaits, FormatNS(c.CondWaitNS), c.Wakeups)
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
