package audit

import (
	"strings"
	"testing"

	"smdb/internal/obs"
)

func TestTimeSeriesWindowBucketing(t *testing.T) {
	m, a := audited(Config{WindowNS: 100})
	// Commits land in windows 0, 0, 2 (unknown txns: only the counters move).
	m.OnEvent(ev(obs.KindTxnCommit, 0, 10, 900, 50))
	m.OnEvent(ev(obs.KindTxnCommit, 0, 90, 901, 70))
	m.OnEvent(ev(obs.KindTxnCommit, 0, 250, 902, 60))

	var sb strings.Builder
	if err := a.WriteTimeSeries(&sb); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	snap := a.ts.snapshotLocked()
	a.mu.Unlock()
	if len(snap.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(snap.Windows))
	}
	if snap.Windows[0].Window != 0 || snap.Windows[0].Commits != 2 {
		t.Errorf("window 0 = %+v", snap.Windows[0])
	}
	if snap.Windows[1].Window != 2 || snap.Windows[1].Commits != 1 {
		t.Errorf("window 2 = %+v", snap.Windows[1])
	}
	if snap.WindowNS != 100 || !snap.Enabled {
		t.Errorf("snapshot header = %+v", snap)
	}
	if !strings.Contains(sb.String(), `"window_ns": 100`) {
		t.Errorf("JSON missing window width: %s", sb.String())
	}
}

func TestTimeSeriesRingEvictionAndStragglers(t *testing.T) {
	m, a := audited(Config{WindowNS: 100})
	// One migration in each of windows+2 windows: the newest `windows`
	// stay resident.
	for w := int64(0); w <= windows+1; w++ {
		m.OnEvent(ev(obs.KindMigrate, 1, w*100+10, 50, 0))
	}
	a.mu.Lock()
	snap := a.ts.snapshotLocked()
	a.mu.Unlock()
	if len(snap.Windows) != windows {
		t.Fatalf("resident windows = %d, want ring size %d", len(snap.Windows), windows)
	}
	if first, last := snap.Windows[0].Window, snap.Windows[windows-1].Window; first != 2 || last != windows+1 {
		t.Errorf("resident range = %d..%d, want 2..%d", first, last, windows+1)
	}

	// A straggler event for the evicted window 0 is dropped; one for a
	// resident window counts there.
	m.OnEvent(ev(obs.KindMigrate, 1, 10, 50, 0))
	m.OnEvent(ev(obs.KindMigrate, 1, 310, 50, 0))
	a.mu.Lock()
	snap = a.ts.snapshotLocked()
	a.mu.Unlock()
	if len(snap.Windows) != windows || snap.Windows[0].Window != 2 {
		t.Errorf("ring disturbed by straggler: %d windows from %d", len(snap.Windows), snap.Windows[0].Window)
	}
	var total int64
	for _, w := range snap.Windows {
		total += w.Migrations
	}
	if snap.Windows[1].Migrations != 2 || total != windows+1 {
		t.Errorf("window 3 migrations = %d, total %d; want 2 and %d", snap.Windows[1].Migrations, total, windows+1)
	}
}

func tickN(ts *timeSeries, window int64, fill func(*windowCounters)) {
	c := ts.ring.At(window * 100)
	if fill != nil {
		fill(c)
	}
}

func newTestSeries() *timeSeries { return newTimeSeries(100) }

func anomalyKinds(ts *timeSeries) []string {
	list := ts.anomalies.List()
	out := make([]string, len(list))
	for i, an := range list {
		out[i] = an.Kind
	}
	return out
}

func TestWatchdogThresholdRules(t *testing.T) {
	ts := newTestSeries()
	tickN(ts, 0, func(c *windowCounters) {
		c.Violations = 2
		c.UnloggedExposures = 1
	})
	tickN(ts, 1, nil) // closes window 0
	kinds := anomalyKinds(ts)
	if len(kinds) != 2 || kinds[0] != "unlogged-exposure" || kinds[1] != "lbm-violation" {
		t.Errorf("anomalies = %v, want [unlogged-exposure lbm-violation]", kinds)
	}
	if ts.anomalies.Total() != 2 {
		t.Errorf("anomaly total = %d", ts.anomalies.Total())
	}
	if an := ts.anomalies.List()[0]; an.Window != 0 || an.Sim != 0 {
		t.Errorf("anomaly provenance = %+v", an)
	}
}

func TestWatchdogCommitLatencyRule(t *testing.T) {
	ts := newTestSeries()
	// Five healthy windows build the trailing baseline (p99 = 128ns bucket).
	for w := int64(0); w < 5; w++ {
		tickN(ts, w, func(c *windowCounters) {
			for i := 0; i < minCommitSamples; i++ {
				c.observeCommit(100)
			}
		})
	}
	// A slow window: p99 jumps to the 2^20 bucket, far over 8x the median.
	tickN(ts, 5, func(c *windowCounters) {
		for i := 0; i < minCommitSamples; i++ {
			c.observeCommit(1 << 20)
		}
	})
	tickN(ts, 6, nil)
	kinds := anomalyKinds(ts)
	if len(kinds) != 1 || kinds[0] != "commit-latency" {
		t.Fatalf("anomalies = %v, want [commit-latency]", kinds)
	}

	// Sparse windows (below minCommitSamples) never qualify.
	ts2 := newTestSeries()
	for w := int64(0); w < 6; w++ {
		tickN(ts2, w, func(c *windowCounters) { c.observeCommit(1 << 30) })
	}
	tickN(ts2, 6, nil)
	if ts2.anomalies.Total() != 0 {
		t.Errorf("sparse windows raised %v", anomalyKinds(ts2))
	}
}

func TestWatchdogMigrationSpikeRule(t *testing.T) {
	ts := newTestSeries()
	for w := int64(0); w < 5; w++ {
		tickN(ts, w, func(c *windowCounters) { c.Migrations = 2 })
	}
	tickN(ts, 5, func(c *windowCounters) { c.Migrations = 40 })
	tickN(ts, 6, nil)
	kinds := anomalyKinds(ts)
	if len(kinds) != 1 || kinds[0] != "migration-spike" {
		t.Fatalf("anomalies = %v, want [migration-spike]", kinds)
	}

	// Below the absolute floor no ratio triggers.
	ts2 := newTestSeries()
	for w := int64(0); w < 5; w++ {
		tickN(ts2, w, func(c *windowCounters) { c.Migrations = 1 })
	}
	tickN(ts2, 5, func(c *windowCounters) { c.Migrations = 20 }) // 20x median but < floor
	tickN(ts2, 6, nil)
	if ts2.anomalies.Total() != 0 {
		t.Errorf("sub-floor spike raised %v", anomalyKinds(ts2))
	}
}

func TestCommitQuantiles(t *testing.T) {
	var c windowCounters
	if got := c.quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	for i := 0; i < 99; i++ {
		c.observeCommit(100) // bucket 7, upper bound 128
	}
	c.observeCommit(1 << 20)
	if got := c.quantile(0.50); got != 128 {
		t.Errorf("p50 = %d, want 128", got)
	}
	if got := c.quantile(0.99); got != 1<<21 {
		t.Errorf("p99 = %d, want %d (top of the 2^20 bucket)", got, 1<<21)
	}
	if bucketOf(0) != 0 || bucketOf(-5) != 0 {
		t.Error("non-positive latencies must land in bucket 0")
	}
	if bucketOf(1<<62) != 62 {
		t.Errorf("bucketOf(1<<62) = %d, want capped at 62", bucketOf(1<<62))
	}
}

func TestPushTrailBound(t *testing.T) {
	var trail []int64
	for i := int64(0); i < int64(trailCap)+10; i++ {
		trail = pushTrail(trail, i)
	}
	if len(trail) != trailCap {
		t.Fatalf("trail len = %d, want %d", len(trail), trailCap)
	}
	if trail[0] != 10 || trail[trailCap-1] != int64(trailCap)+9 {
		t.Errorf("trail = %d..%d, want oldest entries evicted", trail[0], trail[trailCap-1])
	}
}
