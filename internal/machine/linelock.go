package machine

// Line locks (the KSR-1's gsp/rsp "get/release subpage" primitives, renamed
// getline/releaseline in the paper) pin a cache line in the caller's cache
// in a mutually-exclusive state. While held, no other node can read or write
// the line, so an in-place update and the write of its log record become
// atomic with respect to cache-line migration. This is the mechanism that
// makes Volatile LBM nearly free (section 5.1) and that enforces the ordered
// update logging rule (section 6).
//
// Lock waiters block on the per-stripe condition variable; ReleaseLine wakes
// its own stripe's waiters, and Crash (which holds every stripe) wakes all
// of them so they re-check node liveness and line validity.

import (
	"sync/atomic"

	"smdb/internal/obs"
)

// GetLine acquires the line lock on l for node nd, blocking (the calling
// goroutine) while another node holds it. On success the line is exclusively
// resident in nd's cache. The simulated cost is LineLockLocal if the line was
// already exclusive locally and LineLockRemote otherwise, plus queueing delay
// chained through earlier holders (which is what produces the paper's
// contention curve).
func (m *Machine) GetLine(nd NodeID, l LineID) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	victims, err := m.getLineLocked(nd, l)
	if err != nil {
		return err
	}
	m.schedNote(nd, "getline", l)
	// If an injected fault named nd itself, the crash sweep below breaks
	// the lock nd just acquired, so the error return leaves no dangling
	// ownership — same observable outcome as the old order, which crashed
	// before recording ownership.
	return m.applyFault(victims, nd)
}

func (m *Machine) getLineLocked(nd NodeID, l LineID) ([]NodeID, error) {
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	if !m.Alive(nd) {
		return nil, ErrNodeDown
	}
	ln := &m.lines[l]
	if !ln.valid {
		return nil, ErrLineLost
	}
	atomic.AddInt64(&m.nodes[nd].stats.LineLockAcquires, 1)
	entry := atomic.LoadInt64(&m.nodes[nd].clock)
	contended := ln.lock.held
	// Resolve the blocking transaction while the holder still holds: by the
	// time the wait ends the holder may have moved on, and the waterfall's
	// convoy explanation wants who was *actually* in the way.
	var holderTxn int64
	if hk := m.hooks.Load(); hk.wf != nil && contended && ln.lock.owner != NoNode {
		holderTxn = hk.wf.CurrentTxn(int32(ln.lock.owner))
	}
	if contended {
		atomic.AddInt64(&m.nodes[nd].stats.LineLockContended, 1)
	}
	ln.lock.waiters++
	for ln.lock.held {
		m.condWait(s)
		if !m.Alive(nd) {
			ln.lock.waiters--
			return nil, ErrNodeDown
		}
		if !ln.valid {
			ln.lock.waiters--
			return nil, ErrLineLost
		}
	}
	ln.lock.waiters--

	// Simulated queueing: we cannot start acquiring before the lock's
	// simulated free time.
	start := atomic.LoadInt64(&m.nodes[nd].clock)
	if ln.lock.freeAt > start {
		start = ln.lock.freeAt
	}
	cost := m.cfg.Cost.LineLockRemote
	if ln.excl == nd {
		cost = m.cfg.Cost.LineLockLocal
	}
	// Acquiring the lock also acquires the line exclusively, with the same
	// coherency side effects as a write.
	var fev *Event
	var trig int64 // trigger-force cost charged to nd by fire, attributed separately
	if ln.excl != NoNode && ln.excl != nd {
		from := ln.excl
		tc, err := m.fire(l, EventMigrate, ln.excl, nd, nd)
		if err != nil {
			return nil, err
		}
		trig = tc
		atomic.AddInt64(&m.nodes[nd].stats.Migrations, 1)
		ln.holders = 0
		m.trace(obs.KindMigrate, nd, int64(l), int64(from))
		fev = &Event{Line: l, Kind: EventMigrate, From: from, To: nd}
	} else if !ln.holders.sole(nd) {
		others := ln.holders
		others.remove(nd)
		if !others.empty() {
			tc, err := m.fire(l, EventInvalidate, others.lowest(), nd, nd)
			if err != nil {
				return nil, err
			}
			trig = tc
			atomic.AddInt64(&m.nodes[nd].stats.Invalidations, int64(others.count()))
			m.trace(obs.KindInvalidate, nd, int64(l), int64(others.count()))
			fev = &Event{Line: l, Kind: EventInvalidate, From: others.lowest(), To: nd}
		}
		ln.holders = 0
	}
	ln.holders.add(nd)
	ln.excl = nd
	// Injected fault: the previous holder can die at the instant the
	// line-locked acquisition migrates the line into nd's cache. The crash
	// applies once the stripe is released (see GetLine above for the
	// nd-is-a-victim case).
	var victims []NodeID
	if fev != nil {
		victims = m.consultFault(*fev)
	}
	ln.lock.held = true
	ln.lock.owner = nd
	maxStoreInt64(&m.nodes[nd].clock, start+cost)
	if hk := m.hooks.Load(); hk.obs != nil || hk.wf != nil {
		// Acquisition latency is the simulated interval from the caller
		// issuing GetLine to holding the lock: queueing delay (chained
		// through freeAt) plus the acquire cost itself.
		lat := start + cost - entry
		if hk.obs != nil {
			hk.obs.ObserveLineLock(lat)
			if contended {
				hk.obs.Instant(obs.KindLineLockWait, int32(nd), start+cost, int64(l), lat)
			}
		}
		// The waterfall counts real waiting only: a contended acquisition,
		// or simulated queueing chained through freeAt (start > entry). The
		// uncontended acquire cost itself stays in the compute residue, and a
		// trigger force charged by fire is already the DB layer's CauseLogForce
		// segment — subtract it so the causes don't overlap.
		if hk.wf != nil && (contended || start > entry) {
			if holderTxn == 0 {
				holderTxn = ln.lock.lastTxn
			}
			hk.wf.NoteLineWait(int32(nd), int(l), holderTxn, start+cost, lat-trig)
		}
	}
	return victims, nil
}

// TryGetLine is GetLine without blocking: it reports false if the lock is
// held by another node.
func (m *Machine) TryGetLine(nd NodeID, l LineID) (bool, error) {
	if err := m.checkLine(l); err != nil {
		return false, err
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	locked := m.lines[l].lock.held && m.lines[l].lock.owner != nd
	m.unlockStripe(s)
	if locked {
		return false, nil
	}
	if err := m.GetLine(nd, l); err != nil {
		return false, err
	}
	return true, nil
}

// ReleaseLine releases the line lock on l held by node nd.
func (m *Machine) ReleaseLine(nd NodeID, l LineID) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	ln := &m.lines[l]
	if !ln.lock.held || ln.lock.owner != nd {
		return ErrNotLockHolder
	}
	m.charge(nd, m.cfg.Cost.LineLockRelease)
	if hk := m.hooks.Load(); hk.wf != nil {
		ln.lock.lastTxn = hk.wf.CurrentTxn(int32(nd))
	}
	ln.lock.held = false
	ln.lock.owner = NoNode
	// The lock becomes free, in simulated time, when the releasing node's
	// clock reaches this instant; waiters chain their start times from it.
	ln.lock.freeAt = atomic.LoadInt64(&m.nodes[nd].clock)
	m.broadcast(s)
	return nil
}

// LineLockHeldBy returns the node holding the line lock on l, or NoNode.
func (m *Machine) LineLockHeldBy(l LineID) NodeID {
	if l < 0 || int(l) >= len(m.lines) {
		return NoNode
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	if !m.lines[l].lock.held {
		return NoNode
	}
	return m.lines[l].lock.owner
}
