package machine

// Line sections. The paper's update protocol is one hardware acquisition
// that pins a line for everything inside it:
//
//	getline(l); read, log, update ...; releaseline(l)
//
// A Section is that critical section as one value: Enter is getline, Read,
// Write and SetActive are accesses to the pinned line, Leave is releaseline.
// What it saves is host work only. Consecutive steps run under ONE hold of
// the line's stripe, and the clock charge they accumulate is published to the
// node's block once per hold instead of once per step. The hot counters
// (reads, writes, local hits, line-lock acquisitions) cost no publication at
// all: each step adds to its stripe's counts under the mutex it already
// holds (Stats sums them), so a hold that fires no trigger and moves no line
// between nodes costs the stripe lock, the stripe unlock and at most one
// atomic add, the clock's.
// Every step is the simulated operation itself — same liveness, validity and
// line-lock checks, same cost, counters, trace events and fault-injection
// point — because the stand-alone calls (GetLine, ReadInto, Write,
// ReleaseLine) are the same step bodies run under a hold of their own.
//
// The one-stripe rule carries over: a goroutine holds at most one stripe at
// a time, so Crash's ascending sweep of every stripe cannot deadlock against
// it. A section's stripe stays held between steps, hence Yield: call it
// before anything that may take a stripe (any other line's operation —
// another section's steps included — Install, Discard, Crash, Restart) and
// before anything slow (a log force). Yield drops the stripe and keeps the
// line lock; the next step takes the stripe again. Short, bounded work under
// other locks (a log append, a node's control block) may run between steps
// without yielding: the lock order is stripe, then node mutex, then log
// mutex.

import (
	"sync/atomic"

	"smdb/internal/obs"
)

// Section is a line-lock critical section of one node on one line. The zero
// value is a closed section; Machine.Enter opens it and Leave closes it. A
// Section is used by one goroutine and must not be copied while open.
type Section struct {
	m  *Machine
	nd NodeID
	l  LineID
	ln *line
	s  *stripe
	// hk is the hook set as loaded when the stripe was last taken.
	hk *hookSet
	// open: Enter succeeded and Leave has not run, so nd holds l's line lock
	// (unless a crash of nd broke it). held: this goroutine holds s.mu.
	open, held bool
	// clock is what the steps under the current hold charged nd; unlock
	// publishes it. (What they counted is already in s.counts.)
	clock int64
	// victims are the nodes a transition-fault hook named at the step that
	// just ran; settle crashes them.
	victims []NodeID
}

// at points a closed section at line l (validated by the caller) for node nd.
func (h *Section) at(m *Machine, nd NodeID, l LineID) {
	*h = Section{} // zeroed in place: a literal with fields set is built aside and copied over
	h.m, h.nd, h.l, h.ln, h.s = m, nd, l, &m.lines[l], m.stripeOf(l)
}

// lock takes the line's stripe unless this section already holds it.
func (h *Section) lock() {
	if !h.held {
		h.hk = h.m.hooks.Load()
		h.s.mu.Lock()
		h.held = true
	}
}

// unlock publishes what the hold charged and releases the stripe.
func (h *Section) unlock() {
	h.publish()
	h.s.mu.Unlock()
	h.held = false
}

// publish adds the accumulated charge to nd's clock: the hold's one atomic.
// Nothing is charged to a node that failed a step's liveness check, so an
// invalid nd never indexes the blocks.
func (h *Section) publish() {
	if h.clock != 0 {
		atomic.AddInt64(&h.m.nodes[h.nd].clock, h.clock)
		h.clock = 0
	}
}

// now is nd's simulated clock including the unpublished charge.
func (h *Section) now() int64 {
	return atomic.LoadInt64(&h.m.nodes[h.nd].clock) + h.clock
}

// trace is Machine.trace under the section's hold: an event of the section's
// own node is stamped with the clock including the charge not yet published.
func (h *Section) trace(k obs.Kind, nd NodeID, a, b int64) {
	if nd != h.nd {
		h.m.trace(k, nd, a, b)
	} else if h.hk.obs != nil {
		h.hk.obs.Instant(k, int32(nd), h.now(), a, b)
	}
}

// settle ends a step: if a transition-fault hook named victims, the section
// yields and crashes them — a crash takes every stripe, so it cannot run
// under this one — and reports ErrNodeDown when nd itself went down.
func (h *Section) settle() error {
	if len(h.victims) == 0 {
		return nil
	}
	victims := h.victims
	h.victims = nil
	h.unlock()
	return h.m.applyFault(victims, h.nd)
}

// Enter is GetLine as the first step of a section: it acquires the line lock
// on l for node nd, blocking while another node holds it, and on success
// leaves sec open with the line's stripe held. On error sec stays closed and
// nothing is held.
func (m *Machine) Enter(sec *Section, nd NodeID, l LineID) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	sec.Yield()
	sec.at(m, nd, l)
	sec.lock()
	return sec.enter()
}

// TryEnter is Enter without waiting: if any node holds l's line lock — nd
// included, whose lock it is whichever of nd's goroutines took it — it
// reports false and leaves sec closed with nothing held.
func (m *Machine) TryEnter(sec *Section, nd NodeID, l LineID) (bool, error) {
	if err := m.checkLine(l); err != nil {
		return false, err
	}
	sec.Yield()
	sec.at(m, nd, l)
	sec.lock()
	if sec.ln.lock.held {
		sec.Yield()
		return false, nil
	}
	if err := sec.enter(); err != nil {
		return false, err
	}
	return true, nil
}

// enter is the getline step of Enter and TryEnter, called with the stripe
// held; it opens sec, or on error closes it and gives the stripe up.
func (sec *Section) enter() error {
	nd, l := sec.nd, sec.l
	err := sec.acquire()
	if err == nil {
		if f := sec.hk.schedNote; f != nil {
			f(nd, "getline", l)
		}
		// If an injected fault names nd itself, the crash sweep breaks the
		// lock nd just acquired, so the error return leaves no dangling
		// ownership.
		err = sec.settle()
	}
	if err != nil {
		sec.Yield()
		return err
	}
	sec.open = true
	return nil
}

// On reports whether sec is an open section on line l.
func (sec *Section) On(l LineID) bool { return sec.open && sec.l == l }

// Read is ReadInto on the section's line: it copies len(dst) bytes starting
// at byte off into dst.
func (sec *Section) Read(off int, dst []byte) error {
	if err := sec.m.checkRange(sec.l, off, len(dst)); err != nil {
		return err
	}
	sec.lock()
	if err := sec.read(off, dst); err != nil {
		return err
	}
	return sec.settle()
}

// Write is Machine.Write on the section's line: it stores data at byte off.
func (sec *Section) Write(off int, data []byte) error {
	if err := sec.m.checkRange(sec.l, off, len(data)); err != nil {
		return err
	}
	sec.lock()
	if err := sec.write(off, data); err != nil {
		return err
	}
	return sec.settle()
}

// SetActive sets or clears the line's "contains active data" bit (section
// 5.2).
func (sec *Section) SetActive(on bool) {
	sec.lock()
	sec.ln.active = on
}

// Yield drops the line's stripe, if held, and keeps the line lock. See the
// comment at the top of this file for what must yield first.
func (sec *Section) Yield() {
	if sec.held {
		sec.unlock()
	}
}

// Leave is ReleaseLine as the last step of a section: it releases the line
// lock and the stripe and closes sec. It fails with ErrNotLockHolder if nd no
// longer holds the lock (a crash of nd broke it); sec is closed either way.
func (sec *Section) Leave() error {
	sec.lock()
	err := sec.release()
	sec.unlock()
	sec.open = false
	return err
}
