package harness

import (
	"fmt"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/prof"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E20 turns the profiler on the question E18 raises: where does
// parallel recovery's wall clock actually go? The E18 workload (8 nodes,
// heavy committed backlog, two-node crash) is recovered sequentially and at
// increasing fan-out with the contention & cost-attribution profiler
// attached, and each run's host wall time is decomposed into worker busy
// time, stripe lock-wait, condvar-wait, fan-out idle (workers parked while a
// sibling finishes its last task), and coordinator merge time. The residual
// the buckets fail to cover is reported, so an attribution hole shows up as
// a number rather than a shrug.

// RecoveryProfilePoint is one worker count's attribution.
type RecoveryProfilePoint struct {
	// Workers is Cfg.RecoveryWorkers (0 = sequential pipeline).
	Workers int
	// Wall is the host wall-clock makespan of Recover.
	Wall time.Duration
	// The attribution buckets, all host nanoseconds on the wall-clock axis
	// (per-thread quantities are divided by the fan-out width):
	// BusyNS is worker compute, SerialNS the pipeline's non-fanned spans
	// (folded into BusyNS for coverage), LockWaitNS stripe-mutex wait,
	// CondWaitNS condvar sleeps, IdleNS fan-out tail idleness, MergeNS the
	// coordinator's sequential merges.
	BusyNS, SerialNS, LockWaitNS, CondWaitNS, IdleNS, MergeNS int64
	// Coverage is the bucket sum over Wall; the acceptance bar is >= 0.9.
	Coverage float64
	// TopStripes are the most contended stripes during this recovery.
	TopStripes []prof.StripeCounters
	// Stripes is the full stripe-counter delta (TopStripes is its head).
	Stripes prof.StripeSnapshot
	// Phases is the per-phase worker attribution (the /prof/workers view,
	// scoped to this Recover call).
	Phases prof.WorkerSnapshot
}

// RecoveryProfileResult is the sweep.
type RecoveryProfileResult struct {
	Protocol       recovery.Protocol
	Nodes, Victims int
	Points         []RecoveryProfilePoint
}

// RunRecoveryProfile profiles the E18 recovery at each worker count (default
// sequential/2/4/8) under Volatile Selective Redo, the protocol whose
// pipeline exercises every parallel phase. Each run gets a fresh DB and a
// fresh profiler pair, so points are independent.
func RunRecoveryProfile(seed int64, workers []int) (*RecoveryProfileResult, error) {
	if len(workers) == 0 {
		workers = []int{0, 2, 4, 8}
	}
	const nodes, pages = 8, 32
	proto := recovery.VolatileSelectiveRedo
	res := &RecoveryProfileResult{Protocol: proto, Nodes: nodes, Victims: 2}
	for _, w := range workers {
		p, err := runRecoveryProfileOnce(proto, nodes, pages, w, seed)
		if err != nil {
			return nil, fmt.Errorf("recoveryprofile workers=%d: %w", w, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func runRecoveryProfileOnce(proto recovery.Protocol, nodes, pages, workers int, seed int64) (RecoveryProfilePoint, error) {
	db, err := parDB(proto, nodes, pages, workers)
	if err != nil {
		return RecoveryProfilePoint{}, err
	}
	pair := prof.NewPair(machine.StripeCount)
	db.Attach(hooks.Set{Prof: pair})
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: 12, OpsPerTxn: 8,
		ReadFraction: 0.2, SharingFraction: 0.5, Seed: seed,
	})
	if _, err := r.Run(); err != nil {
		return RecoveryProfilePoint{}, err
	}
	victims := []machine.NodeID{machine.NodeID(nodes - 1), machine.NodeID(nodes - 2)}
	db.Crash(victims...)
	start := time.Now()
	rep, err := db.Recover(victims)
	wall := time.Since(start)
	if err != nil {
		return RecoveryProfilePoint{}, err
	}
	if rep.Prof == nil {
		return RecoveryProfilePoint{}, fmt.Errorf("profiler attached but RecoveryReport.Prof is nil")
	}
	return attributeRecovery(workers, wall, rep.Prof), nil
}

// attributeRecovery decomposes one profiled Recover call. All per-thread
// quantities (worker busy sums, stripe wait totals) are rescaled onto the
// wall-clock axis by the fan-out width, so the buckets are comparable to —
// and should roughly sum to — the measured wall time.
func attributeRecovery(workers int, wall time.Duration, rp *recovery.RecoveryProfile) RecoveryProfilePoint {
	width := int64(workers)
	if width < 1 {
		width = 1
	}
	wallNS := wall.Nanoseconds()

	// Fan-out wall, merge, and wall-axis busy come straight from the worker
	// profiler; the fan-out tail idle is their complement inside the fanned
	// spans.
	parWall := rp.Workers.TotalWallNS()
	merge := rp.Workers.TotalMergeNS()
	var busyWall int64
	for _, ph := range rp.Workers.Phases {
		busyWall += ph.BusyWallNS()
	}
	idle := parWall - busyWall
	if idle < 0 {
		idle = 0
	}
	// Whatever Recover spent outside the fanned spans and merges is the
	// pipeline's serial remainder (checkpoint settling, lock-space sweeps,
	// report assembly); it ran on one goroutine, so it is already wall-axis.
	serial := wallNS - parWall - merge
	if serial < 0 {
		serial = 0
	}
	// Stripe waits are summed across every waiting goroutine; dividing by
	// the width approximates their wall-axis footprint. They happened inside
	// time the meters counted as busy, so they move out of the busy bucket
	// rather than stacking on top of it.
	totals := rp.Stripes.Totals()
	lockWait := totals.WaitNS / width
	condWait := totals.CondWaitNS / width
	busy := busyWall + serial - lockWait - condWait
	if busy < 0 {
		busy = 0
	}
	cov := 0.0
	if wallNS > 0 {
		cov = float64(busy+lockWait+condWait+idle+merge) / float64(wallNS)
	}
	return RecoveryProfilePoint{
		Workers:    workers,
		Wall:       wall,
		BusyNS:     busy,
		SerialNS:   serial,
		LockWaitNS: lockWait,
		CondWaitNS: condWait,
		IdleNS:     idle,
		MergeNS:    merge,
		Coverage:   cov,
		TopStripes: rp.Stripes.TopContended(5),
		Stripes:    rp.Stripes,
		Phases:     rp.Workers,
	}
}

// Table renders the attribution sweep.
func (r *RecoveryProfileResult) Table() string {
	t := &tableWriter{header: []string{
		"workers", "host-wall", "busy", "lock-wait", "cond-wait", "idle", "merge", "coverage",
	}}
	for _, p := range r.Points {
		w := "seq"
		if p.Workers > 0 {
			w = fmt.Sprintf("%d", p.Workers)
		}
		t.addRow(
			w,
			prof.FormatNS(p.Wall.Nanoseconds()),
			prof.FormatNS(p.BusyNS),
			prof.FormatNS(p.LockWaitNS),
			prof.FormatNS(p.CondWaitNS),
			prof.FormatNS(p.IdleNS),
			prof.FormatNS(p.MergeNS),
			fmt.Sprintf("%.0f%%", p.Coverage*100),
		)
	}
	return t.String()
}

// Report is Table plus, for the widest fan-out, the top contended stripes
// and the per-phase worker breakdown — the text form of the acceptance
// criterion "attributes the wall time and names the contended stripes".
func (r *RecoveryProfileResult) Report() string {
	out := r.Table()
	if len(r.Points) == 0 {
		return out
	}
	last := r.Points[len(r.Points)-1]
	out += "\n" + prof.RenderReport(last.Stripes, last.Phases, 5)
	return out
}
