package harness

import (
	"strings"
	"testing"
)

// TestRecoveryProfileShapes is the E20 acceptance gate: every point's
// attribution buckets must cover at least 90% of the measured wall time, and
// the report must name the contended stripes and the per-worker breakdown.
func TestRecoveryProfileShapes(t *testing.T) {
	res, err := RunRecoveryProfile(1, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Wall <= 0 {
			t.Errorf("workers=%d wall = %v", p.Workers, p.Wall)
		}
		if p.Coverage < 0.9 {
			t.Errorf("workers=%d coverage = %.2f (busy=%d lockWait=%d condWait=%d idle=%d merge=%d wall=%d), want >= 0.9",
				p.Workers, p.Coverage, p.BusyNS, p.LockWaitNS, p.CondWaitNS, p.IdleNS, p.MergeNS, p.Wall.Nanoseconds())
		}
		if len(p.TopStripes) == 0 {
			t.Errorf("workers=%d has no touched stripes", p.Workers)
		}
		// Only goroutine fan-outs are required to show per-phase worker
		// attribution here; an inline run's phases are metered as one-worker
		// fan-outs, which the coverage check above already includes.
		if p.Workers > 1 && len(p.Phases.Phases) == 0 {
			t.Errorf("workers=%d recorded no fan-outs", p.Workers)
		}
	}
	// The parallel point must attribute real fan-out: redo-scan runs with
	// more than one worker cell.
	par := res.Points[1]
	found := false
	for _, ph := range par.Phases.Phases {
		if len(ph.Workers) > 1 {
			found = true
		}
	}
	if !found {
		t.Error("parallel point has no multi-worker phase")
	}

	rep := res.Report()
	for _, want := range []string{"contended stripes", "per-phase fan-out profile", "per-worker totals", "coverage"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
