package harness

import (
	"fmt"

	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// Experiment E18 recovers a multi-survivor crash under every IFA protocol:
// 8 nodes, a heavy committed backlog since the seed checkpoint, and a
// two-node crash, so every survivor has its own log to scan, its own cache to
// probe and tag-scan, and its own locks to replay (section 4.1.2's
// node-parallel restart, in simulated time).

// ParRecoveryPoint is one protocol's row.
type ParRecoveryPoint struct {
	Protocol                 recovery.Protocol
	RedoApplied, UndoApplied int
	// SimTime is the simulated recovery duration.
	SimTime int64
}

// ParRecoveryResult is the table.
type ParRecoveryResult struct {
	Nodes, Victims int
	Points         []ParRecoveryPoint
}

// RunParRecovery recovers the E18 crash once per IFA protocol.
func RunParRecovery(seed int64) (*ParRecoveryResult, error) {
	const nodes, pages = 8, 32
	res := &ParRecoveryResult{Nodes: nodes, Victims: 2}
	for _, proto := range IFAProtocols() {
		p, err := runParRecoveryOnce(proto, nodes, pages, seed)
		if err != nil {
			return nil, fmt.Errorf("parrecovery %v: %w", proto, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func runParRecoveryOnce(proto recovery.Protocol, nodes, pages int, seed int64) (ParRecoveryPoint, error) {
	lockLines := 1024
	db, err := recovery.New(recovery.Config{
		Machine: machine.Config{
			Nodes: nodes,
			Lines: pages*4 + lockLines + 128,
		},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          pages,
		LockTableLines: lockLines,
	})
	if err != nil {
		return ParRecoveryPoint{}, err
	}
	if err := workload.Seed(db, 0); err != nil {
		return ParRecoveryPoint{}, err
	}
	db.M.ResetStats()
	r := workload.NewRunner(db, workload.Spec{
		TxnsPerNode: 12, OpsPerTxn: 8,
		ReadFraction: 0.2, SharingFraction: 0.5, Seed: seed,
	})
	if _, err := r.Run(); err != nil {
		return ParRecoveryPoint{}, err
	}
	victims := []machine.NodeID{machine.NodeID(nodes - 1), machine.NodeID(nodes - 2)}
	db.Crash(victims...)
	rep, err := db.Recover(victims)
	if err != nil {
		return ParRecoveryPoint{}, err
	}
	return ParRecoveryPoint{
		Protocol:    proto,
		RedoApplied: rep.RedoApplied,
		UndoApplied: rep.UndoApplied,
		SimTime:     rep.SimTime,
	}, nil
}

// Table renders the rows.
func (r *ParRecoveryResult) Table() string {
	t := &tableWriter{header: []string{"protocol", "redo-applied", "undo", "sim-recovery"}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.RedoApplied),
			fmt.Sprintf("%d", p.UndoApplied),
			ms(p.SimTime),
		)
	}
	return t.String()
}
