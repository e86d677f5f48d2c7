package harness

import (
	"fmt"

	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E14 examines access skew. The intuitive expectation — a hot
// set bouncing between nodes maximizes migration — turns out backwards
// under strict 2PL: the hot records' locks serialize access, so fewer
// distinct lines transfer per completed update as the hot set shrinks,
// while lock waits and deadlocks rise instead. Skew moves contention from
// the coherence fabric into the lock manager. The triggered Stable LBM
// force rate tracks the migration rate (not the update rate), so it
// follows the same downward curve, staying well below eager forcing at
// every skew level.
type HotspotPoint struct {
	Protocol recovery.Protocol
	// HotProb is the fraction of shared accesses hitting the hottest 5%
	// of the shared pool.
	HotProb float64
	// MigrationsPerUpdate is coherency migrations of data lines per update
	// performed; LCBMigrationsPerUpdate those of lock-table lines (see
	// lcbMigrations).
	MigrationsPerUpdate, LCBMigrationsPerUpdate float64
	// ForcesPerKUpdate is physical log forces per 1000 updates.
	ForcesPerKUpdate float64
	// SimTimePerOp is mean simulated time per operation.
	SimTimePerOp int64
	// Deadlocks counts deadlock victims — where skewed contention goes.
	Deadlocks int
}

// HotspotResult is the sweep.
type HotspotResult struct {
	Points []HotspotPoint
}

// RunHotspot sweeps the hot-spot probability for the volatile and triggered
// protocols.
func RunHotspot(hotProbs []float64, seed int64) (*HotspotResult, error) {
	if len(hotProbs) == 0 {
		hotProbs = []float64{0.0, 0.5, 0.9}
	}
	res := &HotspotResult{}
	for _, proto := range []recovery.Protocol{recovery.VolatileSelectiveRedo, recovery.StableTriggered} {
		for _, hp := range hotProbs {
			db, err := seededDB(proto, 8, 4, defaultPages, 0)
			if err != nil {
				return nil, err
			}
			forces0 := totalLogForces(db)
			lcb := countLCBMigrations(db)
			r := workload.NewRunner(db, workload.Spec{
				TxnsPerNode: 6, OpsPerTxn: 10,
				ReadFraction: 0.2, SharingFraction: 0.8,
				HotSpot: 0.05, HotProb: hp,
				Seed: seed,
			})
			wres, err := r.Run()
			if err != nil {
				return nil, fmt.Errorf("hotspot %v hp=%.1f: %w", proto, hp, err)
			}
			mst := db.M.Stats()
			p := HotspotPoint{
				Protocol:     proto,
				HotProb:      hp,
				SimTimePerOp: wres.SimTimePerOp,
				Deadlocks:    wres.Deadlocks,
			}
			if wres.Writes > 0 {
				p.MigrationsPerUpdate = float64(mst.Migrations-lcb.n.Load()) / float64(wres.Writes)
				p.LCBMigrationsPerUpdate = float64(lcb.n.Load()) / float64(wres.Writes)
				p.ForcesPerKUpdate = 1000 * float64(totalLogForces(db)-forces0) / float64(wres.Writes)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *HotspotResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "hot-prob", "migrations/update", "lcb-migrations/update", "forces/1k-updates", "deadlocks", "sim-time/op",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			pct(p.HotProb),
			fmt.Sprintf("%.2f", p.MigrationsPerUpdate),
			fmt.Sprintf("%.2f", p.LCBMigrationsPerUpdate),
			fmt.Sprintf("%.1f", p.ForcesPerKUpdate),
			fmt.Sprintf("%d", p.Deadlocks),
			us(p.SimTimePerOp),
		)
	}
	return t.String()
}
