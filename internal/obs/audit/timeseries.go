package audit

import (
	"fmt"
	"math/bits"
	"sort"

	"smdb/internal/obs"
)

// The windowed time-series: a ring of 128 windows' counter snapshots
// (obs.WindowRing), bucketed by simulated time, so a long-running workload
// keeps a bounded, recent view of its own shape — log forces, coherency
// traffic, lock stalls, commit-latency quantiles, recovery makespan —
// instead of one unbounded cumulative counter set. An anomaly watchdog evaluates each
// window as it closes (when events for a later window arrive) against
// threshold and ratio rules; see evalWindow for the rule table, which
// DESIGN.md §8 documents.

// watchdog tuning (documented in DESIGN.md §8).
const (
	// minCommitSamples gates the commit-latency ratio rule: windows with
	// fewer commits have meaningless p99s.
	minCommitSamples = 8
	// minTrailWindows gates the ratio rules until a trailing baseline
	// exists.
	minTrailWindows = 4
	// p99Factor is the commit-latency rule's ratio threshold.
	p99Factor = 8.0
	// trailCap bounds the trailing-history deques.
	trailCap = 32
	// migrationSpikeFloor and migrationSpikeFactor gate the coherency-storm
	// rule: a window must see at least the floor and more than factor x the
	// trailing median.
	migrationSpikeFloor  = 32
	migrationSpikeFactor = 8
)

// windowCounters is one window's live counter set. The commit-latency
// histogram is log2-bucketed, matching obs.Histogram's resolution.
type windowCounters struct {
	Updates           int64
	Migrations        int64
	Replications      int64
	Downgrades        int64
	Invalidations     int64
	LogForces         int64
	LockStalls        int64
	Commits           int64
	Aborts            int64
	Crashes           int64
	Violations        int64
	UnloggedExposures int64
	RecoveryNS        int64

	commitBuckets [65]int64
	commitCount   int64
	commitSum     int64
}

// kindCounter names the window counter an event of each kind adds one to;
// kinds without an entry only move the window clock.
var kindCounter = map[obs.Kind]func(*windowCounters) *int64{
	obs.KindMigrate:      func(w *windowCounters) *int64 { return &w.Migrations },
	obs.KindReplicate:    func(w *windowCounters) *int64 { return &w.Replications },
	obs.KindDowngrade:    func(w *windowCounters) *int64 { return &w.Downgrades },
	obs.KindInvalidate:   func(w *windowCounters) *int64 { return &w.Invalidations },
	obs.KindWALForce:     func(w *windowCounters) *int64 { return &w.LogForces },
	obs.KindLineLockWait: func(w *windowCounters) *int64 { return &w.LockStalls },
	obs.KindLockWait:     func(w *windowCounters) *int64 { return &w.LockStalls },
	obs.KindTxnCommit:    func(w *windowCounters) *int64 { return &w.Commits },
	obs.KindTxnAbort:     func(w *windowCounters) *int64 { return &w.Aborts },
	obs.KindCrash:        func(w *windowCounters) *int64 { return &w.Crashes },
}

// count adds one raw engine event to the window.
func (w *windowCounters) count(e obs.Event) {
	if e.Kind == obs.KindLineLockWait && e.B != 0 {
		return // queued behind a release, not contended: no stall
	}
	if c := kindCounter[e.Kind]; c != nil {
		*c(w)++
	}
	switch e.Kind {
	case obs.KindTxnCommit:
		w.observeCommit(e.B)
	case obs.KindRecovery:
		w.RecoveryNS += e.Dur
	}
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > 62 {
		b = 62
	}
	return b
}

func (w *windowCounters) observeCommit(ns int64) {
	w.commitBuckets[bucketOf(ns)]++
	w.commitCount++
	w.commitSum += ns
}

// quantile returns an upper-bound estimate of the q-quantile of the
// window's commit latencies (the top of the log2 bucket holding the rank).
func (w *windowCounters) quantile(q float64) int64 {
	if w.commitCount == 0 {
		return 0
	}
	rank := int64(q * float64(w.commitCount))
	if rank >= w.commitCount {
		rank = w.commitCount - 1
	}
	var cum int64
	for i, c := range w.commitBuckets {
		cum += c
		if cum > rank {
			if i == 0 {
				return 0
			}
			return int64(1) << uint(i)
		}
	}
	return int64(1) << 62
}

// WindowSnapshot is one window's exported view.
type WindowSnapshot struct {
	Window            int64 `json:"window"`
	StartSim          int64 `json:"start_sim"`
	Updates           int64 `json:"updates"`
	Migrations        int64 `json:"migrations"`
	Replications      int64 `json:"replications"`
	Downgrades        int64 `json:"downgrades"`
	Invalidations     int64 `json:"invalidations"`
	LogForces         int64 `json:"log_forces"`
	LockStalls        int64 `json:"lock_stalls"`
	Commits           int64 `json:"commits"`
	Aborts            int64 `json:"aborts"`
	Crashes           int64 `json:"crashes"`
	Violations        int64 `json:"violations"`
	UnloggedExposures int64 `json:"unlogged_exposures"`
	RecoveryNS        int64 `json:"recovery_ns"`
	CommitP50         int64 `json:"commit_p50_ns"`
	CommitP99         int64 `json:"commit_p99_ns"`
	CommitMean        int64 `json:"commit_mean_ns"`
}

// TimeSeries is the exported snapshot of the whole ring.
type TimeSeries struct {
	Enabled      bool             `json:"enabled"`
	WindowNS     int64            `json:"window_ns"`
	Windows      []WindowSnapshot `json:"windows"`
	Anomalies    []obs.Anomaly    `json:"anomalies"`
	AnomalyTotal int              `json:"anomaly_total"`
}

// timeSeries is the ring + watchdog state, guarded by the Auditor's mutex.
type timeSeries struct {
	width int64
	ring  *obs.WindowRing[windowCounters]

	p99Trail []int64
	migTrail []int64

	anomalies obs.AnomalyLog
}

func newTimeSeries(width int64) *timeSeries {
	t := &timeSeries{width: width}
	t.ring = obs.NewWindowRing(width, windows, t.evalWindow)
	return t
}

func pushTrail(trail []int64, v int64) []int64 {
	if len(trail) >= trailCap {
		copy(trail, trail[1:])
		trail = trail[:trailCap-1]
	}
	return append(trail, v)
}

func median(vs []int64) int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// evalWindow applies the watchdog rules to one closed window:
//
//	unlogged-exposure   UnloggedExposures > 0 (threshold; always a bug)
//	lbm-violation       Violations > 0 (threshold; always a bug)
//	commit-latency      p99 > p99Factor x trailing median p99, with at
//	                    least minCommitSamples commits in the window and
//	                    minTrailWindows qualifying windows of history
//	migration-spike     Migrations > migrationSpikeFactor x trailing
//	                    median, above migrationSpikeFloor, same history gate
func (t *timeSeries) evalWindow(id int64, c *windowCounters) {
	if c.UnloggedExposures > 0 {
		t.anomaly(id, "unlogged-exposure",
			fmt.Sprintf("%d exposure(s) of unlogged updates left their failure domain", c.UnloggedExposures))
	}
	if c.Violations > 0 {
		t.anomaly(id, "lbm-violation",
			fmt.Sprintf("%d LBM violation(s) raised in this window", c.Violations))
	}
	if c.commitCount >= minCommitSamples {
		p99 := c.quantile(0.99)
		if len(t.p99Trail) >= minTrailWindows {
			if med := median(t.p99Trail); med > 0 && float64(p99) > p99Factor*float64(med) {
				t.anomaly(id, "commit-latency",
					fmt.Sprintf("commit p99 %dns > %.0fx trailing median %dns", p99, p99Factor, med))
			}
		}
		t.p99Trail = pushTrail(t.p99Trail, p99)
	}
	if c.Migrations >= migrationSpikeFloor && len(t.migTrail) >= minTrailWindows {
		if med := median(t.migTrail); med > 0 && c.Migrations > migrationSpikeFactor*med {
			t.anomaly(id, "migration-spike",
				fmt.Sprintf("%d migrations > %dx trailing median %d", c.Migrations, migrationSpikeFactor, med))
		}
	}
	if c.Migrations > 0 || c.Updates > 0 {
		t.migTrail = pushTrail(t.migTrail, c.Migrations)
	}
}

func (t *timeSeries) anomaly(id int64, kind, detail string) {
	t.anomalies.Add(obs.Anomaly{Window: id, Sim: id * t.width, Kind: kind, Detail: detail})
}

// snapshotLocked exports the resident windows in time order plus the
// anomaly log. Caller holds the Auditor's mutex.
func (t *timeSeries) snapshotLocked() TimeSeries {
	out := TimeSeries{
		Enabled:      true,
		WindowNS:     t.width,
		Anomalies:    t.anomalies.List(),
		AnomalyTotal: t.anomalies.Total(),
	}
	t.ring.Each(func(id int64, c *windowCounters) {
		out.Windows = append(out.Windows, WindowSnapshot{
			Window:            id,
			StartSim:          id * t.width,
			Updates:           c.Updates,
			Migrations:        c.Migrations,
			Replications:      c.Replications,
			Downgrades:        c.Downgrades,
			Invalidations:     c.Invalidations,
			LogForces:         c.LogForces,
			LockStalls:        c.LockStalls,
			Commits:           c.Commits,
			Aborts:            c.Aborts,
			Crashes:           c.Crashes,
			Violations:        c.Violations,
			UnloggedExposures: c.UnloggedExposures,
			RecoveryNS:        c.RecoveryNS,
			CommitP50:         c.quantile(0.50),
			CommitP99:         c.quantile(0.99),
			CommitMean:        meanOf(c.commitSum, c.commitCount),
		})
	})
	return out
}

func meanOf(sum, n int64) int64 {
	if n == 0 {
		return 0
	}
	return sum / n
}
