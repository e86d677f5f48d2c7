package harness

import (
	"fmt"

	"smdb/internal/machine"
	"smdb/internal/obs"
)

// Experiment E2 reproduces the only measured numbers in the paper (section
// 5.1): the mean time to acquire a cache-line lock, under low contention
// (< 10 us on the KSR-1) and with up to 32 processors simultaneously
// hammering the same line (< 40 us). The simulated cost model is calibrated
// so these bands hold; the experiment's value is the contention *curve*.
type LineLockPoint struct {
	// Contenders is the number of processors cycling on one line lock.
	Contenders int
	// MeanNS / MaxNS are per-acquisition latency (request to grant) in
	// simulated nanoseconds.
	MeanNS, MaxNS int64
	// P50NS/P95NS/P99NS are latency quantiles from the observability
	// layer's line-lock histogram (each contention level gets a private
	// observer, so the distribution is per-level).
	P50NS, P95NS, P99NS int64
	// Acquisitions is the sample count.
	Acquisitions int
}

// LineLockResult is the contention sweep.
type LineLockResult struct {
	Points []LineLockPoint
}

// RunLineLock measures line-lock acquisition latency for each contention
// level. Each contender performs rounds acquire/(hold for holdNS)/release
// cycles on the same line; the deterministic round-robin driver plus the
// machine's simulated lock-queue chaining yields the same queueing behaviour
// a closed-loop hardware test does.
func RunLineLock(contentionLevels []int, rounds int, holdNS int64) (*LineLockResult, error) {
	if len(contentionLevels) == 0 {
		contentionLevels = []int{1, 2, 4, 8, 16, 32}
	}
	if rounds == 0 {
		rounds = 200
	}
	res := &LineLockResult{}
	for _, c := range contentionLevels {
		m := machine.New(machine.Config{Nodes: 32, Lines: 64})
		o := obs.New()
		m.SetHooks(o)
		l := m.Alloc(1)
		if err := m.Install(0, l, make([]byte, m.LineSize())); err != nil {
			return nil, err
		}
		var total, max int64
		n := 0
		for round := 0; round < rounds; round++ {
			for nd := machine.NodeID(0); int(nd) < c; nd++ {
				before := m.Clock(nd)
				if err := m.GetLine(nd, l); err != nil {
					return nil, err
				}
				lat := m.Clock(nd) - before
				total += lat
				if lat > max {
					max = lat
				}
				n++
				m.AdvanceClock(nd, holdNS)
				if err := m.ReleaseLine(nd, l); err != nil {
					return nil, err
				}
			}
		}
		hist := o.LineLockHist().Snapshot()
		res.Points = append(res.Points, LineLockPoint{
			Contenders:   c,
			MeanNS:       total / int64(n),
			MaxNS:        max,
			P50NS:        hist.Quantile(0.50),
			P95NS:        hist.Quantile(0.95),
			P99NS:        hist.Quantile(0.99),
			Acquisitions: n,
		})
	}
	return res, nil
}

// Table renders the sweep with the paper's reference bands.
func (r *LineLockResult) Table() string {
	t := &tableWriter{header: []string{"contenders", "mean", "p50", "p95", "p99", "max", "paper band"}}
	for _, p := range r.Points {
		band := ""
		switch {
		case p.Contenders == 1:
			band = "< 10us (low contention)"
		case p.Contenders == 32:
			band = "< 40us (32 processors)"
		}
		t.addRow(fmt.Sprintf("%d", p.Contenders), us(p.MeanNS),
			us(p.P50NS), us(p.P95NS), us(p.P99NS), us(p.MaxNS), band)
	}
	return t.String()
}
