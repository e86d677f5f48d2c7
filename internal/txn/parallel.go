package txn

import (
	"fmt"
	"slices"

	"smdb/internal/machine"
	"smdb/internal/recovery"
)

// ParallelTxn is a transaction parallelized across several nodes (paper
// section 9): one branch per node, each doing that node's share of the
// work, committed atomically. If any participating node crashes, restart
// recovery aborts every branch — the whole transaction is all-or-nothing
// across the machine.
type ParallelTxn struct {
	mgr      *Manager
	global   recovery.GlobalID
	branches map[machine.NodeID]*Txn
	done     bool
}

// BeginParallel starts a parallel transaction with a branch on each of the
// given nodes.
func (m *Manager) BeginParallel(nodes ...machine.NodeID) (*ParallelTxn, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("txn: parallel transaction needs at least one node")
	}
	g := m.DB.BeginGlobal()
	p := &ParallelTxn{mgr: m, global: g, branches: make(map[machine.NodeID]*Txn, len(nodes))}
	for _, nd := range nodes {
		id, err := m.DB.BeginBranch(g, nd)
		if err != nil {
			return nil, err
		}
		p.branches[nd] = m.newTxn(id, nd)
	}
	return p, nil
}

// Global returns the parallel transaction's identifier.
func (p *ParallelTxn) Global() recovery.GlobalID { return p.global }

// On returns the branch running on node nd (nil if none).
func (p *ParallelTxn) On(nd machine.NodeID) *Txn { return p.branches[nd] }

// Nodes returns the participating nodes in ascending order.
func (p *ParallelTxn) Nodes() []machine.NodeID {
	out := make([]machine.NodeID, 0, len(p.branches))
	for nd := range p.branches {
		out = append(out, nd)
	}
	slices.Sort(out)
	return out
}

// Commit commits every branch atomically: all logs are forced through their
// commit records before any branch is considered committed, and the engine
// then releases the branches' locks in node order.
func (p *ParallelTxn) Commit() error {
	return p.end(p.mgr.DB.CommitGlobal)
}

// Abort rolls back every live branch, releasing its locks, in node order.
func (p *ParallelTxn) Abort() error {
	return p.end(p.mgr.DB.AbortGlobal)
}

func (p *ParallelTxn) end(fin func(recovery.GlobalID) error) error {
	if p.done {
		return ErrDone
	}
	if err := fin(p.global); err != nil {
		return err
	}
	for _, b := range p.branches {
		b.done = true
	}
	p.done = true
	return nil
}
