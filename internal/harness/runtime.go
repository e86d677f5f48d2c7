package harness

import (
	"fmt"

	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E4 measures the failure-free runtime cost of each protocol on
// an update-heavy shared workload (sections 4.1.1, 5, 7): the paper's claim
// is that Volatile LBM costs almost nothing beyond the baseline (the log
// record is written anyway; the line lock bounds it), while Stable LBM pays
// a log force per update (eager) or per migration of active data
// (triggered), which only NVRAM log devices make tolerable.
type RuntimePoint struct {
	Protocol recovery.Protocol
	NVRAM    bool
	// SimTimePerOp is mean simulated nanoseconds per record operation.
	SimTimePerOp int64
	// ThroughputTPS is committed transactions per simulated second.
	ThroughputTPS float64
	// PhysForces is the number of physical log forces during the run.
	PhysForces int64
	// Slowdown is SimTimePerOp relative to the baseline row.
	Slowdown float64
}

// RuntimeResult is the comparison.
type RuntimeResult struct {
	Points []RuntimePoint
	Spec   workload.Spec
}

// RunRuntime executes the same workload under every protocol (plus the
// stable protocols with an NVRAM log device) and reports per-op cost.
func RunRuntime(nodes int, sharing float64, seed int64) (*RuntimeResult, error) {
	spec := workload.Spec{
		TxnsPerNode: 8, OpsPerTxn: 10,
		ReadFraction: 0.2, SharingFraction: sharing, Seed: seed,
	}
	res := &RuntimeResult{Spec: spec}
	type cfg struct {
		proto recovery.Protocol
		nvram bool
	}
	cfgs := []cfg{
		{recovery.BaselineFA, false},
		{recovery.VolatileRedoAll, false},
		{recovery.VolatileSelectiveRedo, false},
		{recovery.StableEager, false},
		{recovery.StableTriggered, false},
		{recovery.StableEager, true},
		{recovery.StableTriggered, true},
	}
	var baseline int64
	for _, c := range cfgs {
		db, err := seededDB(c.proto, nodes, 4, defaultPages, 0)
		if err != nil {
			return nil, err
		}
		db.Cfg.NVRAMLog = c.nvram
		forces0 := totalLogForces(db)
		start := db.M.MaxClock()
		r := workload.NewRunner(db, spec)
		wres, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("runtime %v: %w", c.proto, err)
		}
		elapsed := db.M.MaxClock() - start
		p := RuntimePoint{
			Protocol:     c.proto,
			NVRAM:        c.nvram,
			SimTimePerOp: wres.SimTimePerOp,
			PhysForces:   totalLogForces(db) - forces0,
		}
		if elapsed > 0 {
			p.ThroughputTPS = float64(wres.Committed) / (float64(elapsed) / 1e9)
		}
		if c.proto == recovery.BaselineFA {
			baseline = p.SimTimePerOp
		}
		if baseline > 0 {
			p.Slowdown = float64(p.SimTimePerOp) / float64(baseline)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Table renders the comparison.
func (r *RuntimeResult) Table() string {
	t := &tableWriter{header: []string{"protocol", "log-device", "sim-time/op", "txns/sim-sec", "phys-forces", "slowdown"}}
	for _, p := range r.Points {
		dev := "disk"
		if p.NVRAM {
			dev = "nvram"
		}
		t.addRow(
			p.Protocol.String(), dev,
			us(p.SimTimePerOp),
			fmt.Sprintf("%.0f", p.ThroughputTPS),
			fmt.Sprintf("%d", p.PhysForces),
			fmt.Sprintf("%.2fx", p.Slowdown),
		)
	}
	return t.String()
}
