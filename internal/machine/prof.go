package machine

// Stripe-lock profiling. The contention profiler (internal/obs/prof) is
// off by default: hookSet.prof is nil and every stripe acquisition costs
// exactly one extra atomic hook load and one predictable branch over the
// bare mutex — the nil-profiler guard benchmark in bench_test.go holds this
// path to zero allocations. With a profiler attached, every stripe
// critical section is bracketed: TryLock distinguishes contended from
// uncontended acquisitions (and times the blocking ones), unlockStripe
// charges the hold, condWait splits a condvar sleep out of the enclosing
// hold span, and broadcast counts wakeups.

import "smdb/internal/obs/prof"

// StripeCount is the number of line-directory lock stripes, exported so
// callers can size a prof.StripeProf to match (prof.NewStripeProf(machine.StripeCount)).
const StripeCount = stripeCount

// lockStripe acquires s.mu, recording the acquisition when profiling, and
// returns the hook set it loaded on the way in.
func (m *Machine) lockStripe(s *stripe) *hookSet {
	hk := m.hooks.Load()
	p := hk.prof
	if p == nil {
		s.mu.Lock()
		return hk
	}
	si := int(s.idx)
	if s.mu.TryLock() {
		p.LockAcquired(si, false, 0)
	} else {
		t0 := prof.Now()
		s.mu.Lock()
		p.LockAcquired(si, true, prof.Now()-t0)
	}
	// holdStart is guarded by s.mu itself; nonzero only while a profiled
	// critical section is open, so unlockStripe stays correct if the
	// profiler is attached or detached mid-section.
	s.holdStart = prof.Now()
	return hk
}

// unlockStripe releases s.mu, charging the hold time when the section was
// opened with a profiler attached.
func (m *Machine) unlockStripe(s *stripe) {
	if s.holdStart != 0 {
		if p := m.hooks.Load().prof; p != nil {
			p.LockHeld(int(s.idx), prof.Now()-s.holdStart)
		}
		s.holdStart = 0
	}
	s.mu.Unlock()
}

// condWait waits on s.cond. When profiling, the enclosing hold span is
// closed for the duration of the sleep (the mutex is not held while
// parked) and reopened on wakeup, and the sleep itself is charged to the
// stripe's condvar counters.
func (m *Machine) condWait(s *stripe) {
	p := m.hooks.Load().prof
	if p == nil {
		s.cond.Wait()
		return
	}
	si := int(s.idx)
	if s.holdStart != 0 {
		p.LockHeld(si, prof.Now()-s.holdStart)
		s.holdStart = 0
	}
	t0 := prof.Now()
	s.cond.Wait()
	now := prof.Now()
	p.CondWait(si, now-t0)
	s.holdStart = now
}

// broadcast wakes s's waiters, counting the wakeup when profiling.
func (m *Machine) broadcast(s *stripe) {
	s.cond.Broadcast()
	if p := m.hooks.Load().prof; p != nil {
		p.Wakeup(int(s.idx))
	}
}
