package machine

// Crash injection and the low-level (hardware) recovery step. Following the
// FLASH design sketched in section 2 of the paper, a node failure is detected
// by the (simulated) diagnostic processor; all caches whose node failed are
// destroyed; and the interconnect restores the cache directories to a
// consistent state reflecting the surviving caches. Software recovery — the
// paper's actual contribution — runs on top of this.
//
// Under the striped line directory, Crash quiesces the whole machine: it
// takes liveMu (ordering it against Restart and other Crash calls) and then
// every stripe that guards a line in ascending index order, so the liveness
// flip, the directory sweep, and the crashNotify callback are a single
// atomic step with respect to all line operations — the guarantee the old
// global mutex provided.

import (
	"sync/atomic"

	"smdb/internal/obs"
)

// CrashReport describes the memory damage of a crash: which lines lost their
// only copy and were destroyed, and which survived on other nodes.
type CrashReport struct {
	// Crashed lists the nodes taken down by this call.
	Crashed []NodeID
	// LostLines are lines whose only valid copies were on crashed nodes;
	// their contents are gone.
	LostLines []LineID
	// OrphanedLines are lines that survive on at least one live node but
	// had a copy (shared or exclusive) on a crashed node; uncommitted
	// crashed-node updates may live on in these (the undo problem).
	OrphanedLines []LineID
}

// Crash fails the given nodes: their cache contents and any in-progress
// state are destroyed, line locks they held are broken, and the directory is
// restored to a consistent state. Crash is idempotent for already-down
// nodes. It returns a report of the lines destroyed and orphaned.
func (m *Machine) Crash(nodes ...NodeID) CrashReport {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	stripes := m.stripesOver(len(m.lines))
	for i := range stripes {
		stripes[i].mu.Lock()
	}
	defer func() {
		// Even an idempotent re-crash must wake line-lock waiters: a waiter
		// may be blocked on a lock whose owner died in the *first* crash of
		// this node, and the wake-up is how it learns to re-check liveness.
		for i := range stripes {
			stripes[i].cond.Broadcast()
		}
		for i := len(stripes) - 1; i >= 0; i-- {
			stripes[i].mu.Unlock()
		}
	}()
	return m.crashQuiesced(nodes)
}

// crashQuiesced performs the crash with liveMu and every stripe held.
func (m *Machine) crashQuiesced(nodes []NodeID) CrashReport {
	var rep CrashReport
	var down bitset
	mask := m.aliveMask.Load()
	for _, n := range nodes {
		if n < 0 || int(n) >= m.cfg.Nodes || mask&(1<<uint(n)) == 0 {
			continue
		}
		mask &^= 1 << uint(n)
		atomic.AddInt64(&m.global.Crashes, 1)
		down.add(n)
		rep.Crashed = append(rep.Crashed, n)
	}
	m.aliveMask.Store(mask)
	if down.empty() {
		return rep
	}
	// The sweep allocates nothing per line: a holder test is one mask, and
	// a first, read-only pass sizes the report's two line lists exactly.
	frontier := m.frontier()
	var nLost, nOrphaned int
	for i := LineID(0); i < frontier; i++ {
		if ln := &m.lines[i]; ln.valid.Load() && ln.holders&down != 0 {
			if ln.holders&^down == 0 {
				nLost++
			} else {
				nOrphaned++
			}
		}
	}
	rep.LostLines = make([]LineID, 0, nLost)
	rep.OrphanedLines = make([]LineID, 0, nOrphaned)
	for i := LineID(0); i < frontier; i++ {
		ln := &m.lines[i]
		// Break line locks held by crashed nodes so survivors blocked in
		// GetLine can proceed (the low-level recovery interrupts all CPUs
		// and repairs the interconnect state).
		if ln.lock.held && down.has(ln.lock.owner) {
			ln.lock.held = false
			ln.lock.owner = NoNode
		}
		if !ln.valid.Load() || ln.holders&down == 0 {
			continue
		}
		ln.holders &^= down
		if ln.excl != NoNode && down.has(ln.excl) {
			ln.excl = NoNode
		}
		if ln.holders.empty() {
			// The only copy was on a crashed node: destroyed.
			ln.valid.Store(false)
			ln.active = false
			for j := range ln.data {
				ln.data[j] = 0
			}
			atomic.AddInt64(&m.global.LinesLost, 1)
			rep.LostLines = append(rep.LostLines, i)
		} else {
			rep.OrphanedLines = append(rep.OrphanedLines, i)
		}
	}
	for _, n := range rep.Crashed {
		m.trace(obs.KindCrash, n, int64(len(rep.LostLines)), int64(len(rep.OrphanedLines)))
	}
	if hk := m.hooks.Load(); hk.crashNotify != nil {
		hk.crashNotify(rep)
	}
	return rep
}

// consultFault asks the injected transition-fault hook, with the line's
// stripe held, which nodes should crash at this transition, and traces the
// injection instants. The crash itself is applied by settle once the section
// has given up its stripe: executing the sweep from inside a line
// operation would mean taking every stripe while holding one, which
// deadlocks against a concurrent injector on another stripe. The observable
// difference from the old in-line crash is only that the triggering
// operation's own effect lands before the victims die — and since after a
// migrate/invalidate transition the initiator is the line's sole holder,
// a crash of the initiator still destroys that effect, while a crash of
// the old holder was already past influencing it.
func (h *Section) consultFault(ev Event) {
	if h.hk.transitionFault == nil {
		return
	}
	h.victims = h.hk.transitionFault(ev, h.m.aliveCount())
	for _, v := range h.victims {
		h.trace(obs.KindFault, v, int64(ev.Line), int64(ev.Kind))
	}
}

// applyFault crashes the victims a step collected, after the triggering
// operation has released its stripe. It returns ErrNodeDown if
// the initiating node nd itself was taken down, so the caller reports its
// operation as lost with the node.
func (m *Machine) applyFault(victims []NodeID, nd NodeID) error {
	if len(victims) == 0 {
		return nil
	}
	m.Crash(victims...)
	if !m.Alive(nd) {
		return ErrNodeDown
	}
	return nil
}

// Restart brings a crashed node back up with a cold (empty) cache. Its
// simulated clock is advanced to the maximum across nodes, modelling the
// repair delay.
func (m *Machine) Restart(n NodeID) error {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	if n < 0 || int(n) >= m.cfg.Nodes {
		return ErrBadAddress
	}
	mask := m.aliveMask.Load()
	if mask&(1<<uint(n)) != 0 {
		return nil
	}
	m.aliveMask.Store(mask | 1<<uint(n))
	maxStoreInt64(&m.nodes[n].clock, m.MaxClock())
	return nil
}

// AliveNodes returns the IDs of all live nodes in ascending order.
// Lock-free.
func (m *Machine) AliveNodes() []NodeID {
	mask := m.aliveMask.Load()
	out := make([]NodeID, 0, m.cfg.Nodes)
	for i := 0; i < m.cfg.Nodes; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}
