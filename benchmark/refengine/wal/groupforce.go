package wal

import (
	"runtime"
	"sync"
	"time"
)

// Epoch/group log forces: commits arriving within one epoch window coalesce
// into a single physical device force. The first committer whose record is
// not yet stable becomes the epoch's leader — it waits out the window (so
// concurrent committers can append their own commit records), then forces
// the log through its current tail, covering every record the epoch
// collected in one device write. Committers that arrive while a leader is in
// flight are followers: they wait for the leader's force and, if it covered
// their LSN, return without a device write of their own. Commit-heavy
// workloads thus stop serializing on one physical force per commit; the
// commit *durability* contract is unchanged because a caller only returns
// success once its own LSN is stable (the recovery layer re-checks
// ForcedLSN after every ForceGroup).
//
// Determinism under chaos record/replay: a host-time window would make the
// set of commit records stable at a crash instant depend on scheduling, so
// the wait is pluggable. With a yield hook installed (the recovery layer
// wires it to a sched.Session point), both the leader's collection wait and
// each follower wait round are single recorded scheduler points: the
// coalescing decisions become functions of log state at floor-serialized,
// recorded instants, and a replay reproduces them exactly. Followers must
// never block on the condvar in that mode — a follower parked under the
// scheduler floor would deadlock the session — so they yield-loop instead.

// groupForce is the per-log epoch/group-commit state, guarded by Log.mu.
type groupForce struct {
	enabled bool
	// window is the leader's host-time collection wait (ignored when a
	// yield hook is installed).
	window time.Duration
	// yield, when non-nil, replaces the host-time window: the leader calls
	// it once to open the epoch to concurrent committers, and followers
	// call it per wait round instead of parking on cond.
	yield func()
	// leader is true while an epoch leader is collecting or forcing.
	leader bool
	// cond wakes parked followers after the leader's force — and on
	// Crash/ForceTorn, so nobody waits on a dead log.
	cond *sync.Cond
	// downCh interrupts a leader parked in its host-time window when the
	// log goes down mid-epoch (a condvar cannot time out, a sleep cannot
	// be woken). Closed by wakeGroupLocked, remade by Reopen.
	downCh     chan struct{}
	downClosed bool
	// leads/joins/coalesced: epochs led (physical forces attempted by a
	// leader), waits satisfied by another commit's force, and calls whose
	// LSN was already stable on arrival.
	leads, joins, coalesced int64
}

// GroupForceResult reports how one ForceGroup call was satisfied.
type GroupForceResult struct {
	// Records is the number of records made stable by this caller's own
	// physical force (0 unless Led).
	Records int
	// Led: this caller was the epoch leader and performed (or attempted)
	// the physical force.
	Led bool
	// Joined: the caller waited and another commit's force covered its LSN.
	Joined bool
	// Coalesced: the LSN was already stable on arrival; no wait, no force.
	Coalesced bool
}

// EnableGroupForce turns on epoch/group commit forces for this log. window
// is the leader's collection wait in host time; yield (optional) replaces it
// with a deterministic scheduler hand-off — see SetGroupYield.
func (l *Log) EnableGroupForce(window time.Duration, yield func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gf.enabled = true
	l.gf.window = window
	l.gf.yield = yield
	if l.gf.cond == nil {
		l.gf.cond = sync.NewCond(&l.mu)
	}
	if l.gf.downCh == nil {
		l.gf.downCh = make(chan struct{})
		l.gf.downClosed = false
	}
}

// SetGroupYield installs (or, with nil, removes) the deterministic wait
// hook. With a hook installed the leader's epoch window and every follower
// wait round are one hook call each — the recovery layer points this at a
// sched.Session so record/replay serializes the coalescing decisions.
func (l *Log) SetGroupYield(yield func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gf.yield = yield
}

// GroupForceEnabled reports whether epoch/group forces are on.
func (l *Log) GroupForceEnabled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gf.enabled
}

// GroupStats returns the cumulative epoch census: epochs led, waits
// satisfied by another commit's force, and already-stable no-ops.
func (l *Log) GroupStats() (leads, joins, coalesced int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gf.leads, l.gf.joins, l.gf.coalesced
}

// wakeGroupLocked unparks any followers; called (with l.mu held) wherever
// the log goes down, so nobody waits on a dead log.
func (l *Log) wakeGroupLocked() {
	if l.gf.cond != nil {
		l.gf.cond.Broadcast()
	}
	if l.gf.downCh != nil && !l.gf.downClosed {
		close(l.gf.downCh)
		l.gf.downClosed = true
	}
}

// coveredLocked reports whether upto is already stable.
func (l *Log) coveredLocked(upto LSN) bool {
	return int(upto-l.first)+1 <= l.forced
}

// ForceGroup makes the record at upto stable via the epoch/group-commit
// path. With group forces disabled it degrades to a plain Force. The result
// says how the request was satisfied; like Force, a down log yields a zero
// result and the caller must re-check ForcedLSN before acknowledging.
func (l *Log) ForceGroup(upto LSN) GroupForceResult {
	l.mu.Lock()
	if !l.gf.enabled {
		n, f := l.forceLocked(upto)
		l.mu.Unlock()
		return GroupForceResult{Records: n, Led: f}
	}
	if l.down {
		l.mu.Unlock()
		return GroupForceResult{}
	}
	if l.coveredLocked(upto) {
		l.gf.coalesced++
		l.mu.Unlock()
		return GroupForceResult{Coalesced: true}
	}
	// Follower path: a leader is collecting or forcing; wait for its force
	// and re-check. The loop re-enters when a new leader won the race first.
	for l.gf.leader {
		if yield := l.gf.yield; yield != nil {
			l.mu.Unlock()
			yield()
			// The hook may be a pass-through (e.g. a disarmed session);
			// keep the wait loop polite on real CPUs.
			runtime.Gosched()
			l.mu.Lock()
		} else {
			l.gf.cond.Wait()
		}
		if l.down {
			l.mu.Unlock()
			return GroupForceResult{}
		}
		if l.coveredLocked(upto) {
			l.gf.joins++
			l.mu.Unlock()
			return GroupForceResult{Joined: true}
		}
	}
	// A previous leader may have exited without covering us (torn or failed
	// force) while an unrelated plain Force advanced the stable prefix;
	// re-check before taking the epoch over.
	if l.coveredLocked(upto) {
		l.gf.joins++
		l.mu.Unlock()
		return GroupForceResult{Joined: true}
	}
	// Leader path: open the epoch, let concurrent committers append, then
	// force through the whole tail so every collected record piggybacks on
	// one device write.
	l.gf.leader = true
	l.gf.leads++
	window, yield, downCh := l.gf.window, l.gf.yield, l.gf.downCh
	l.mu.Unlock()
	if yield != nil {
		yield()
	} else if window > 0 {
		// A crash mid-window must wake the leader: the select races the
		// epoch timer against the log going down.
		t := time.NewTimer(window)
		select {
		case <-t.C:
		case <-downCh:
			t.Stop()
		}
	}
	l.mu.Lock()
	var res GroupForceResult
	if !l.down {
		n, f := l.forceLocked(LSN(1 << 62))
		res = GroupForceResult{Records: n, Led: f}
	}
	l.gf.leader = false
	l.gf.cond.Broadcast()
	l.mu.Unlock()
	return res
}
