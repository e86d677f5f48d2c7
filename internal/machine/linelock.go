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
// contention curve). It is Enter with the stripe given back at once; pair it
// with ReleaseLine.
func (m *Machine) GetLine(nd NodeID, l LineID) error {
	var sec Section
	if err := m.Enter(&sec, nd, l); err != nil {
		return err
	}
	sec.Yield()
	return nil
}

// acquire is the getline step. Called with the line's stripe held, which it
// gives up while it waits for another holder.
func (h *Section) acquire() error {
	m, nd, l, ln := h.m, h.nd, h.l, h.ln
	if !m.Alive(nd) {
		return ErrNodeDown
	}
	if !ln.valid.Load() {
		return ErrLineLost
	}
	h.s.counts.lineLockAcquires++
	entry := h.now()
	contended := ln.lock.held
	// Name the holder while it still holds: by the time the wait ends it may
	// have moved on, and a convoy explanation wants who was in the way.
	holder := ln.lock.lastRel
	if contended {
		holder = ln.lock.owner
		atomic.AddInt64(&m.nodes[nd].stats.LineLockContended, 1)
	}
	ln.lock.waiters++
	for ln.lock.held {
		// The stripe is not held while parked, so the hold ends here: what
		// it charged is published, and the hooks are read afresh after.
		h.publish()
		h.s.cond.Wait()
		h.hk = m.hooks.Load()
		if !m.Alive(nd) {
			ln.lock.waiters--
			return ErrNodeDown
		}
		if !ln.valid.Load() {
			ln.lock.waiters--
			return ErrLineLost
		}
	}
	ln.lock.waiters--

	// Simulated queueing: we cannot start acquiring before the lock's
	// simulated free time.
	start := max(h.now(), ln.lock.freeAt)
	cost := m.cfg.Cost.LineLockRemote
	if ln.excl == nd {
		cost = m.cfg.Cost.LineLockLocal
	}
	// Acquiring the lock also acquires the line exclusively, with the same
	// coherency side effects as a write.
	var trig int64 // trigger-force cost charged to nd by fire, attributed separately
	if ln.excl != NoNode && ln.excl != nd {
		from := ln.excl
		tc, err := h.fire(EventMigrate, ln.excl)
		if err != nil {
			return err
		}
		trig = tc
		atomic.AddInt64(&m.nodes[nd].stats.Migrations, 1)
		ln.holders = 0
		h.trace(obs.KindMigrate, nd, int64(l), int64(from))
		h.consultFault(Event{Line: l, Kind: EventMigrate, From: from, To: nd})
	} else if !ln.holders.sole(nd) {
		others := ln.holders
		others.remove(nd)
		if !others.empty() {
			tc, err := h.fire(EventInvalidate, others.lowest())
			if err != nil {
				return err
			}
			trig = tc
			atomic.AddInt64(&m.nodes[nd].stats.Invalidations, int64(others.count()))
			h.trace(obs.KindInvalidate, nd, int64(l), int64(others.count()))
			h.consultFault(Event{Line: l, Kind: EventInvalidate, From: others.lowest(), To: nd})
		}
		ln.holders = 0
	}
	ln.holders.add(nd)
	ln.excl = nd
	ln.lock.held = true
	ln.lock.owner = nd
	// The clock moves to start+cost, unless a trigger force has already
	// charged it past that; never backwards.
	h.clock += max(start+cost-h.now(), 0)
	if o := h.hk.obs; o != nil {
		// Acquisition latency is the simulated interval from the caller
		// issuing GetLine to holding the lock: queueing delay (chained
		// through freeAt) plus the acquire cost itself.
		lat := start + cost - entry
		o.ObserveLineLock(lat)
		// Only real waiting is an event: a contended acquisition, or
		// simulated queueing chained through freeAt (start > entry), which
		// names the release it queued behind. A trigger force charged by
		// fire is a log force, not a wait, so the event's wait leaves it out.
		if contended || start > entry {
			var rel int64
			if !contended {
				rel = start
			}
			o.Record(obs.Event{Kind: obs.KindLineLockWait, Node: int32(nd), Sim: start + cost,
				A: int64(l), B: rel, C: int64(holder), Dur: lat - trig})
		}
	}
	return nil
}

// ReleaseLine releases the line lock on l held by node nd: Leave on a
// section picked up where GetLine left it.
func (m *Machine) ReleaseLine(nd NodeID, l LineID) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	var sec Section
	sec.at(m, nd, l)
	return sec.Leave()
}

// release is the releaseline step. Called with the line's stripe held.
func (h *Section) release() error {
	ln := h.ln
	if !ln.lock.held || ln.lock.owner != h.nd {
		return ErrNotLockHolder
	}
	h.clock += h.m.cfg.Cost.LineLockRelease
	ln.lock.lastRel = h.nd
	ln.lock.held = false
	ln.lock.owner = NoNode
	// The lock becomes free, in simulated time, when the releasing node's
	// clock reaches this instant; waiters chain their start times from it.
	ln.lock.freeAt = h.now()
	h.s.cond.Broadcast()
	return nil
}

// LineLockHeldBy returns the node holding the line lock on l, or NoNode.
func (m *Machine) LineLockHeldBy(l LineID) NodeID {
	if l < 0 || int(l) >= len(m.lines) {
		return NoNode
	}
	s := m.stripeOf(l)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !m.lines[l].lock.held {
		return NoNode
	}
	return m.lines[l].lock.owner
}
