package machine

// This file implements the coherency protocol proper: reads, writes, and the
// software-visible residency operations (Install, Discard, Resident) used by
// the buffer manager and the restart-recovery schemes. Every operation here
// holds exactly one stripe lock (the one guarding its line). Reads and writes
// are section steps (section.go): injected transition-fault crashes are
// collected under the stripe and applied once it is released (see
// consultFault in crash.go).

import (
	"sort"
	"sync/atomic"

	"smdb/internal/obs"
)

// charge adds simulated cost to node nd's clock. Atomic, so lock-free clock
// readers compose correctly.
func (m *Machine) charge(nd NodeID, cost int64) {
	atomic.AddInt64(&m.nodes[nd].clock, cost)
}

// Read copies n bytes starting at byte off of line l into a fresh slice, on
// behalf of node nd. If the line is valid somewhere the protocol replicates
// it into nd's cache (downgrading an exclusive remote holder, history H_wr);
// if it is valid nowhere Read returns ErrLineLost and the caller must
// re-install it from stable storage.
func (m *Machine) Read(nd NodeID, l LineID, off, n int) ([]byte, error) {
	if err := m.checkRange(l, off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := m.ReadInto(nd, l, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read into a caller-supplied buffer: it copies len(dst) bytes
// starting at byte off of line l into dst, with exactly Read's coherency
// effects, counters, simulated cost, and fault-injection points. On error
// the contents of dst are unspecified. Hot paths use it to keep one line
// image per operation instead of one allocation per read.
func (m *Machine) ReadInto(nd NodeID, l LineID, off int, dst []byte) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	var sec Section
	sec.at(m, nd, l)
	err := sec.Read(off, dst)
	sec.Yield()
	return err
}

// read is the read step. Called with the line's stripe held.
func (h *Section) read(off int, dst []byte) error {
	m, nd, l, ln := h.m, h.nd, h.l, h.ln
	if !m.Alive(nd) {
		return ErrNodeDown
	}
	h.reads++
	if !ln.valid.Load() {
		return ErrLineLost
	}
	if ln.holders.has(nd) {
		// Local hit.
		h.hits++
		h.clock += m.cfg.Cost.ReadLocal
	} else {
		// Remote fetch; replicate into nd's cache.
		var fev *Event
		if ln.excl != NoNode && ln.excl != nd {
			// H_wr: the exclusive holder is downgraded to shared.
			from := ln.excl
			if _, err := h.fire(EventDowngrade, from); err != nil {
				return err
			}
			atomic.AddInt64(&m.nodes[nd].stats.Downgrades, 1)
			ln.excl = NoNode
			h.trace(obs.KindDowngrade, nd, int64(l), int64(from))
			fev = &Event{Line: l, Kind: EventDowngrade, From: from, To: nd}
		} else {
			// Shared replication: a copy spreads without any holder losing
			// state. Traced so residency consumers (the dependency tracker)
			// see the line enter nd's failure domain.
			h.trace(obs.KindReplicate, nd, int64(l), int64(ln.holders.lowest()))
		}
		ln.holders.add(nd)
		atomic.AddInt64(&m.nodes[nd].stats.RemoteFetches, 1)
		atomic.AddInt64(&m.nodes[nd].stats.Replications, 1)
		h.clock += m.cfg.Cost.RemoteFetch
		// Injected fault: the downgraded holder can die at exactly this
		// transition, after its uncommitted data replicated to nd's failure
		// domain (consulted once nd holds a copy, so the line itself
		// survives as the hardware guarantees). The crash applies once the
		// stripe is released; if nd itself is a victim the step fails and
		// the copied-out data is the caller's to drop.
		if fev != nil {
			h.consultFault(*fev)
		}
	}
	copy(dst, ln.data[off:off+len(dst)])
	return nil
}

// Write stores data at byte off of line l on behalf of node nd. Under
// write-invalidate the write first obtains the line exclusively, invalidating
// every other cached copy (migrating the line if another node held it
// exclusively — histories H_ww1/H_ww2). Under write-broadcast the update is
// propagated to all cached copies instead. Write returns ErrLineLost if the
// line is valid nowhere.
func (m *Machine) Write(nd NodeID, l LineID, off int, data []byte) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	var sec Section
	sec.at(m, nd, l)
	err := sec.Write(off, data)
	sec.Yield()
	return err
}

// write is the write step. Called with the line's stripe held.
func (h *Section) write(off int, data []byte) error {
	m, nd, l, ln := h.m, h.nd, h.l, h.ln
	if !m.Alive(nd) {
		return ErrNodeDown
	}
	h.writes++
	if !ln.valid.Load() {
		return ErrLineLost
	}
	if ln.lock.held && ln.lock.owner != nd {
		// A line lock pins the line: no other node may read or write it.
		// Callers coordinate through GetLine, so reaching this is a
		// protocol bug above the machine; report it loudly.
		return ErrLineLockHeld
	}
	if m.cfg.Coherency == WriteBroadcast {
		h.writeBroadcast(off, data)
		return nil
	}
	switch {
	case ln.excl == nd:
		// Already exclusive locally.
		h.hits++
		h.clock += m.cfg.Cost.WriteLocal
	case ln.holders.sole(nd):
		// Sole sharer: silent upgrade.
		ln.excl = nd
		h.hits++
		h.clock += m.cfg.Cost.WriteLocal
	case ln.excl != NoNode:
		// Another node holds it exclusively: the line migrates.
		from := ln.excl
		if _, err := h.fire(EventMigrate, from); err != nil {
			return err
		}
		atomic.AddInt64(&m.nodes[nd].stats.Migrations, 1)
		atomic.AddInt64(&m.nodes[nd].stats.RemoteFetches, 1)
		ln.holders = 0
		ln.holders.add(nd)
		ln.excl = nd
		h.clock += m.cfg.Cost.RemoteFetch
		h.trace(obs.KindMigrate, nd, int64(l), int64(from))
		// Injected fault: a node that just lost this line can die at this
		// transition (H_ww1/H_ww2 — consulted once the transfer is
		// complete, so nd's fresh copy keeps the line alive). The crash
		// applies after the stripe is released; if nd itself is a victim,
		// its written copy dies with it (nd is the sole holder after the
		// transition).
		h.consultFault(Event{Line: l, Kind: EventMigrate, From: from, To: nd})
	default:
		// Shared in one or more caches: invalidate them all.
		others := ln.holders
		others.remove(nd)
		var fev *Event
		if !others.empty() {
			if _, err := h.fire(EventInvalidate, others.lowest()); err != nil {
				return err
			}
			atomic.AddInt64(&m.nodes[nd].stats.Invalidations, int64(others.count()))
			h.clock += int64(others.count()) * m.cfg.Cost.InvalidatePerSharer
			h.trace(obs.KindInvalidate, nd, int64(l), int64(others.count()))
			fev = &Event{Line: l, Kind: EventInvalidate, From: others.lowest(), To: nd}
		}
		if !ln.holders.has(nd) {
			h.clock += m.cfg.Cost.RemoteFetch
			atomic.AddInt64(&m.nodes[nd].stats.RemoteFetches, 1)
		} else {
			h.clock += m.cfg.Cost.WriteLocal
			h.hits++
		}
		ln.holders = 0
		ln.holders.add(nd)
		ln.excl = nd
		if fev != nil {
			h.consultFault(*fev) // as for a migration, above
		}
	}
	copy(ln.data[off:], data)
	return nil
}

// writeBroadcast is the write step under the write-broadcast protocol of
// section 7: every cached copy is updated in place, so ww sharing replicates
// lines instead of migrating them and a crash loses a line only if the
// crashed node held its sole copy.
func (h *Section) writeBroadcast(off int, data []byte) {
	m, nd, ln := h.m, h.nd, h.ln
	if !ln.holders.has(nd) {
		from := nd
		if !ln.holders.empty() {
			from = ln.holders.lowest()
		}
		h.trace(obs.KindReplicate, nd, int64(h.l), int64(from))
		ln.holders.add(nd)
		atomic.AddInt64(&m.nodes[nd].stats.RemoteFetches, 1)
		atomic.AddInt64(&m.nodes[nd].stats.Replications, 1)
		h.clock += m.cfg.Cost.RemoteFetch
	} else {
		h.hits++
		h.clock += m.cfg.Cost.WriteLocal
	}
	if remote := ln.holders.count() - 1; remote > 0 {
		atomic.AddInt64(&m.nodes[nd].stats.Broadcasts, 1)
		h.clock += int64(remote) * m.cfg.Cost.BroadcastPerSharer
	}
	// The broadcast keeps every copy current; exclusivity is not tracked.
	ln.excl = NoNode
	copy(ln.data[off:], data)
}

// Install loads content into line l and makes node nd its (exclusive) sole
// holder. The buffer manager calls it after reading a page from the stable
// database; restart recovery calls it to rebuild caches. Any previously
// cached copies are replaced. The caller is responsible for charging disk
// time via AdvanceClock; Install itself charges only the local store.
func (m *Machine) Install(nd NodeID, l LineID, data []byte) error {
	if err := m.checkRange(l, 0, len(data)); err != nil {
		return err
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	if !m.Alive(nd) {
		return ErrNodeDown
	}
	ln := &m.lines[l]
	if ln.lock.held {
		return ErrLineLockHeld
	}
	if gate := m.hooks.Load().installGate; gate != nil {
		// Consulted with the stripe held: a concurrent Crash cannot publish
		// its state change (it needs every stripe) until this install — and
		// therefore this gate decision — completes.
		if err := gate(nd, l); err != nil {
			return err
		}
	}
	m.schedNote(nd, "install", l)
	if ln.data == nil {
		ln.data = make([]byte, m.cfg.LineSize)
	}
	copy(ln.data, data)
	for i := len(data); i < m.cfg.LineSize; i++ {
		ln.data[i] = 0
	}
	ln.valid.Store(true)
	ln.holders = 0
	ln.holders.add(nd)
	ln.excl = nd
	ln.active = false
	atomic.AddInt64(&m.nodes[nd].stats.Installs, 1)
	m.trace(obs.KindInstall, nd, int64(l), 0)
	m.charge(nd, m.cfg.Cost.WriteLocal)
	return nil
}

// Discard drops node nd's cached copy of line l, if any. If that was the
// only copy, the line's content is destroyed (shared memory is the union of
// the caches): this is exactly the "discard all cached database records"
// step of the Redo All restart scheme, and also how the buffer manager
// evicts a page after writing it back. Discard of a line-locked line fails.
func (m *Machine) Discard(nd NodeID, l LineID) error {
	if err := m.checkLine(l); err != nil {
		return err
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	ln := &m.lines[l]
	if ln.lock.held {
		return ErrLineLockHeld
	}
	if m.discardLocked(nd, l, ln) {
		atomic.AddInt64(&m.nodes[nd].stats.Discards, 1)
	}
	return nil
}

// discardLocked drops nd's copy of ln (line id l), destroying the line if it
// was the last copy, and reports whether a copy was actually dropped. Called
// with the line's stripe held; the caller accounts the Discards stat.
func (m *Machine) discardLocked(nd NodeID, l LineID, ln *line) bool {
	if !ln.valid.Load() || !ln.holders.has(nd) {
		return false
	}
	ln.holders.remove(nd)
	if ln.excl == nd {
		ln.excl = NoNode
	}
	var destroyed int64
	if ln.holders.empty() {
		ln.valid.Store(false)
		ln.active = false
		destroyed = 1
		for i := range ln.data {
			ln.data[i] = 0
		}
	}
	m.trace(obs.KindDiscard, nd, int64(l), destroyed)
	return true
}

// DiscardAll drops node nd's cached copy of every allocated line for which
// filter returns true (a nil filter selects every line). It is the batched
// form of Discard behind Redo All's "discard all cached database records"
// restart step: instead of one lock round-trip per line it takes each stripe
// once and sweeps that stripe's lines. Line-locked lines are silently
// skipped (the per-line Discard reports ErrLineLockHeld for those; callers
// of the batch form filter them out or own the locks). DiscardAll returns
// the number of cached copies dropped, which is also added to the Discards
// counter in Stats.
func (m *Machine) DiscardAll(nd NodeID, filter func(LineID) bool) int {
	frontier := m.frontier()
	dropped := 0
	stripes := m.stripesOver(int(frontier))
	for si := range stripes {
		s := &stripes[si]
		m.lockStripe(s)
		for l := LineID(si); l < frontier; l += stripeCount {
			ln := &m.lines[l]
			if ln.lock.held {
				continue
			}
			if filter != nil && !filter(l) {
				continue
			}
			if m.discardLocked(nd, l, ln) {
				dropped++
			}
		}
		m.unlockStripe(s)
	}
	if dropped > 0 {
		atomic.AddInt64(&m.nodes[nd].stats.Discards, int64(dropped))
	}
	return dropped
}

// Resident reports whether line l is valid in at least one surviving cache.
// Selective Redo uses it as the "cache miss with I/O disabled" probe of
// section 4.1.2: if a memory reference cannot be satisfied by any surviving
// node, no copy of the update exists and redo is required.
func (m *Machine) Resident(l LineID) bool {
	return l >= 0 && int(l) < len(m.lines) && m.lines[l].valid.Load()
}

// Holders returns the nodes currently caching line l (empty if lost).
func (m *Machine) Holders(l LineID) []NodeID {
	if l < 0 || int(l) >= len(m.lines) {
		return nil
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	if !m.lines[l].valid.Load() {
		return nil
	}
	return m.lines[l].holders.nodes()
}

// ExclusiveHolder returns the node holding line l exclusively, or NoNode.
func (m *Machine) ExclusiveHolder(l LineID) NodeID {
	if l < 0 || int(l) >= len(m.lines) {
		return NoNode
	}
	s := m.stripeOf(l)
	m.lockStripe(s)
	defer m.unlockStripe(s)
	if !m.lines[l].valid.Load() {
		return NoNode
	}
	return m.lines[l].excl
}

// CachedLines returns, in ascending order, every allocated line with a valid
// copy in node nd's cache. Selective Redo's undo phase performs its
// "sequential search of all cache lines" with this. The snapshot is taken
// stripe by stripe: it is internally consistent per stripe but, unlike under
// the old global mutex, not a single point-in-time picture of the whole
// machine — recovery only calls it on a quiesced (frozen) machine, where the
// distinction vanishes.
func (m *Machine) CachedLines(nd NodeID) []LineID {
	frontier := m.frontier()
	var out []LineID
	stripes := m.stripesOver(int(frontier))
	for si := range stripes {
		s := &stripes[si]
		m.lockStripe(s)
		for l := LineID(si); l < frontier; l += stripeCount {
			if m.lines[l].valid.Load() && m.lines[l].holders.has(nd) {
				out = append(out, l)
			}
		}
		m.unlockStripe(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
