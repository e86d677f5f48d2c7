package harness

import (
	"fmt"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// Experiment E17 is the dependency census: the recovery-dependency graph
// tracker watches the same line-hopping schedule under each LBM discipline
// and counts the cross-node dependencies transactions accumulate — and,
// crucially, how many are *unlogged* (the sole copy of an uncommitted
// update migrated away with no covering log record). Stable LBM forces the
// log before a line is exposed, so every edge is stable-covered; volatile
// LBM leaves a surviving volatile log record, so edges are covered but a
// crash still costs redo; the ablated no-LBM control defers logging to
// commit, exposing unlogged edges — which the final crash turns into doomed
// survivors, the hazard the explainer reports and LBM exists to prevent.
//
// The schedule is deterministic and deadlock-free by construction: the four
// nodes write *distinct record slots of the same cache lines*, so no record
// lock ever conflicts, but every write steals the line from the previous
// writer while that writer's transaction is still uncommitted — the
// dependency-forming event. (The random runner cannot drive the ablated
// control here: its deadlock victims need undo logging to abort, which is
// exactly what no-LBM lacks.)
type DepCensusPoint struct {
	Protocol recovery.Protocol
	Census   deps.Census
	// Verdicts counts the explainer's crash-time verdicts; Doomed the
	// doomed-survivor subset (nonzero only when IFA is lost).
	Verdicts, Doomed int
	// Aborted is the recovery's victim count, for scale.
	Aborted int
}

// DepCensusResult is the per-protocol sweep.
type DepCensusResult struct {
	Points []DepCensusPoint
}

// depCensusLines is how many distinct cache lines each round walks.
const depCensusLines = 6

// depCensusRound runs one round of the line-hopping schedule: every node
// begins a transaction, then for each line the nodes write their private
// slot in node order (each write migrating the line onward). When commit is
// false the transactions are left in flight and returned.
func depCensusRound(db *recovery.DB, mgr *txn.Manager, round int, commit bool) ([]*txn.Txn, error) {
	nodes := 4
	txs := make([]*txn.Txn, nodes)
	for n := 0; n < nodes; n++ {
		tx, err := mgr.Begin(machine.NodeID(n))
		if err != nil {
			return nil, err
		}
		txs[n] = tx
	}
	for l := 0; l < depCensusLines; l++ {
		for n := 0; n < nodes; n++ {
			rid := heap.RID{Page: storage.PageID(l + 1), Slot: uint16(n)}
			if err := txs[n].Write(rid, []byte{byte(2 + round), byte(n)}); err != nil {
				return nil, fmt.Errorf("round %d line %d node %d: %w", round, l, n, err)
			}
		}
	}
	if !commit {
		return txs, nil
	}
	for n, tx := range txs {
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("round %d node %d commit: %w", round, n, err)
		}
	}
	return nil, nil
}

// RunDepCensus runs the census for the representative protocols: one stable
// LBM, one volatile LBM, and the ablated negative control. Each run gets a
// private observer and tracker, drives two committed rounds plus one left
// in flight, then crashes the last node — the holder of every hopped line —
// and recovers.
func RunDepCensus(seed int64) (*DepCensusResult, error) {
	_ = seed // the schedule is deterministic; kept for the bench's uniform signature
	res := &DepCensusResult{}
	for _, proto := range []recovery.Protocol{
		recovery.StableEager,
		recovery.VolatileSelectiveRedo,
		recovery.AblatedNoLBM,
	} {
		db, err := seededDB(proto, 4, 4, defaultPages, 0)
		if err != nil {
			return nil, err
		}
		o := obs.NewWithCapacity(4096)
		tr := deps.New(o)
		db.Attach(hooks.Set{Observer: o, Deps: tr})

		mgr := txn.NewManager(db)
		for round := 0; round < 2; round++ {
			if _, err := depCensusRound(db, mgr, round, true); err != nil {
				return nil, fmt.Errorf("depcensus %v: %w", proto, err)
			}
		}
		if _, err := depCensusRound(db, mgr, 2, false); err != nil {
			return nil, fmt.Errorf("depcensus %v: %w", proto, err)
		}

		// Node 3 wrote last on every line, so it holds them all; its crash
		// destroys the sole copies of the in-flight round's updates.
		victim := machine.NodeID(3)
		db.Crash(victim)
		rep, err := db.Recover([]machine.NodeID{victim})
		if err != nil {
			return nil, fmt.Errorf("depcensus %v recover: %w", proto, err)
		}

		p := DepCensusPoint{
			Protocol: proto,
			Census:   tr.Census(),
			Aborted:  len(rep.Aborted),
		}
		for _, v := range tr.Verdicts() {
			p.Verdicts++
			if v.Doomed {
				p.Doomed++
			}
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Table renders the census.
func (r *DepCensusResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "txns", "dep-edges", "unlogged", "txns-w/deps", "txns-w/unlogged",
		"mean-deps", "max-deps", "verdicts", "doomed", "aborted",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.Census.Txns),
			fmt.Sprintf("%d", p.Census.Edges),
			fmt.Sprintf("%d", p.Census.UnloggedEdges),
			fmt.Sprintf("%d", p.Census.TxnsWithDeps),
			fmt.Sprintf("%d", p.Census.TxnsWithUnlogged),
			fmt.Sprintf("%.2f", p.Census.MeanDeps()),
			fmt.Sprintf("%d", p.Census.MaxDeps),
			fmt.Sprintf("%d", p.Verdicts),
			fmt.Sprintf("%d", p.Doomed),
			fmt.Sprintf("%d", p.Aborted),
		)
	}
	return t.String()
}
