package harness

import (
	"fmt"

	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E7 tests the section 7 claim about write-broadcast coherency:
// under write-broadcast, ww sharing replicates lines instead of migrating
// them, so a crash destroys a line only if the crashed node held its sole
// copy. No surviving transaction's update is ever lost to a remote crash
// (redo at restart becomes unnecessary — only undo is required), which makes
// Selective Redo the natural scheme.
type BroadcastPoint struct {
	Coherency machine.Coherency
	// Migrations counts exclusive transfers of data lines (zero under
	// write-broadcast); LCBMigrations those of lock-table lines, which a
	// getline makes under either protocol (see lcbMigrations).
	Migrations, LCBMigrations int64
	// LostLines is lines destroyed by the crash; RedoApplied is restart
	// redo work; UndoApplied restart undo work.
	LostLines, RedoApplied, UndoApplied int
	// Unnecessary is aborts beyond the crashed node's transactions.
	Unnecessary int
	// Violations is the IFA checker output length.
	Violations int
}

// BroadcastResult compares write-invalidate and write-broadcast.
type BroadcastResult struct {
	Points []BroadcastPoint
}

// RunBroadcast runs the same shared workload plus a one-node crash under
// both coherency protocols with Volatile LBM / Selective Redo.
func RunBroadcast(seed int64) (*BroadcastResult, error) {
	res := &BroadcastResult{}
	for _, coh := range []machine.Coherency{machine.WriteInvalidate, machine.WriteBroadcast} {
		db, err := seededDB(recovery.VolatileSelectiveRedo, 4, 4, defaultPages, coh)
		if err != nil {
			return nil, err
		}
		lcb := countLCBMigrations(db)
		r := workload.NewRunner(db, workload.Spec{
			TxnsPerNode: 4, OpsPerTxn: 12,
			ReadFraction: 0.2, SharingFraction: 0.8, Seed: seed,
		})
		if _, err := r.RunUntilMidFlight(10); err != nil {
			return nil, err
		}
		victim := machine.NodeID(3)
		crashedTxns := len(db.ActiveTxns(victim))
		crash := db.Crash(victim)
		rep, err := db.Recover([]machine.NodeID{victim})
		if err != nil {
			return nil, fmt.Errorf("broadcast %v: %w", coh, err)
		}
		res.Points = append(res.Points, BroadcastPoint{
			Coherency:     coh,
			Migrations:    db.M.Stats().Migrations - lcb.n.Load(),
			LCBMigrations: lcb.n.Load(),
			LostLines:     len(crash.LostLines),
			RedoApplied:   rep.RedoApplied,
			UndoApplied:   rep.UndoApplied,
			Unnecessary:   len(rep.Aborted) - crashedTxns,
			Violations:    len(db.CheckIFA(db.M.AliveNodes()[0])),
		})
	}
	return res, nil
}

// Table renders the comparison.
func (r *BroadcastResult) Table() string {
	t := &tableWriter{header: []string{
		"coherency", "migrations", "lcb-migrations", "lost-lines", "redo", "undo", "unnecessary-aborts", "ifa-violations",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Coherency.String(),
			fmt.Sprintf("%d", p.Migrations),
			fmt.Sprintf("%d", p.LCBMigrations),
			fmt.Sprintf("%d", p.LostLines),
			fmt.Sprintf("%d", p.RedoApplied),
			fmt.Sprintf("%d", p.UndoApplied),
			fmt.Sprintf("%d", p.Unnecessary),
			fmt.Sprintf("%d", p.Violations),
		)
	}
	return t.String()
}
