package machine

import "sync/atomic"

// Stats counts coherency traffic and failure events. The recovery
// experiments use these to relate protocol overheads to the sharing
// behaviour that causes them. Inside the Machine the four counters every
// line hold bumps (Reads, Writes, LocalHits, LineLockAcquires) are kept per
// stripe (stripeCounts) as plain adds under the stripe's mutex; the rare
// transition counters are kept per acting node (nodeBlock) and updated with
// atomic adds. Stats() sums both.
type Stats struct {
	// Reads and Writes are total loads/stores issued.
	Reads, Writes int64
	// LocalHits are accesses satisfied by the local cache.
	LocalHits int64
	// RemoteFetches are accesses serviced from another node's cache.
	RemoteFetches int64
	// Migrations are exclusive-to-exclusive transfers caused by remote
	// writes (histories H_ww1/H_ww2): the old holder loses its copy.
	Migrations int64
	// Downgrades are exclusive-to-shared transitions caused by remote
	// reads (history H_wr).
	Downgrades int64
	// Replications are copies created in additional caches by reads.
	Replications int64
	// Invalidations are shared copies destroyed by writes.
	Invalidations int64
	// Broadcasts are write-broadcast update rounds.
	Broadcasts int64
	// Installs are lines loaded from outside (disk) into a cache.
	Installs int64
	// Discards are cached copies dropped by software (cache flush),
	// whether one at a time (Discard) or batched (DiscardAll).
	Discards int64
	// LineLockAcquires and LineLockContended count GetLine calls and the
	// subset that found the lock held.
	LineLockAcquires, LineLockContended int64
	// TriggerFires counts pre-transition callback invocations on active
	// lines (the section 5.2 hardware extension).
	TriggerFires int64
	// Crashes is the number of node crashes injected.
	Crashes int64
	// LinesLost is the number of valid lines destroyed by crashes (their
	// only copy was on a crashed node).
	LinesLost int64
}

// Sub returns the per-interval delta s - prev: each counter minus its value
// in an earlier snapshot. Harnesses use it to report work done inside a
// measurement window without hand-subtracting fields.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:             s.Reads - prev.Reads,
		Writes:            s.Writes - prev.Writes,
		LocalHits:         s.LocalHits - prev.LocalHits,
		RemoteFetches:     s.RemoteFetches - prev.RemoteFetches,
		Migrations:        s.Migrations - prev.Migrations,
		Downgrades:        s.Downgrades - prev.Downgrades,
		Replications:      s.Replications - prev.Replications,
		Invalidations:     s.Invalidations - prev.Invalidations,
		Broadcasts:        s.Broadcasts - prev.Broadcasts,
		Installs:          s.Installs - prev.Installs,
		Discards:          s.Discards - prev.Discards,
		LineLockAcquires:  s.LineLockAcquires - prev.LineLockAcquires,
		LineLockContended: s.LineLockContended - prev.LineLockContended,
		TriggerFires:      s.TriggerFires - prev.TriggerFires,
		Crashes:           s.Crashes - prev.Crashes,
		LinesLost:         s.LinesLost - prev.LinesLost,
	}
}

// transitions are the counters a node block (and the machine's global block)
// keeps: every Stats counter except the four the stripes keep, under the
// same names.
type transitions struct {
	RemoteFetches, Migrations, Downgrades, Replications, Invalidations int64
	Broadcasts, Installs, Discards, LineLockContended, TriggerFires    int64
	Crashes, LinesLost                                                 int64
}

// counters lists the address of every counter of t, in declaration order.
func (t *transitions) counters() [12]*int64 {
	return [12]*int64{
		&t.RemoteFetches, &t.Migrations, &t.Downgrades, &t.Replications, &t.Invalidations,
		&t.Broadcasts, &t.Installs, &t.Discards, &t.LineLockContended, &t.TriggerFires,
		&t.Crashes, &t.LinesLost,
	}
}

// transitions lists the addresses of s's transition counters, in the order
// of transitions.counters.
func (s *Stats) transitions() [12]*int64 {
	return [12]*int64{
		&s.RemoteFetches, &s.Migrations, &s.Downgrades, &s.Replications, &s.Invalidations,
		&s.Broadcasts, &s.Installs, &s.Discards, &s.LineLockContended, &s.TriggerFires,
		&s.Crashes, &s.LinesLost,
	}
}

// nodeBlock is one node's clock and transition counters. The clock has a
// cache line to itself and the counters fill the next two, so a node
// charging its own operations never writes a line another node's operations
// write: with the clocks packed in one line and one shared counter block,
// every charge on one CPU invalidated the line under every other.
type nodeBlock struct {
	// clock is the node's simulated nanoseconds, accessed only atomically:
	// observability hooks in other layers (wal, buffer) need a node's
	// clock while a stripe may be held by a pre-transition callback higher
	// in the stack. Monotonic absolute stores go through maxStoreInt64.
	clock int64
	_     [56]byte
	// stats counts the rare transitions this node issued (migrations,
	// fetches, invalidations, installs, discards, contended acquisitions),
	// updated with atomic adds: one node's operations on lines of different
	// stripes run at once.
	stats transitions
	_     [32]byte
}

// stripeCounts are the counters of the steps every line hold runs, kept in
// the stripe of the line the step touched and guarded by its mutex: the
// step already holds it, so counting costs no atomic and no write to a
// cache line another node's steps write.
type stripeCounts struct {
	reads, writes, localHits, lineLockAcquires int64
}

// eachBlock calls fn on every counter block: one per node, then the global.
func (m *Machine) eachBlock(fn func(*transitions)) {
	for i := range m.nodes {
		fn(&m.nodes[i].stats)
	}
	fn(&m.global)
}

// eachStripe calls fn on the counts of every stripe that guards a line of
// the machine, holding that stripe's mutex and no other.
func (m *Machine) eachStripe(fn func(*stripeCounts)) {
	stripes := m.stripesOver(len(m.lines))
	for i := range stripes {
		s := &stripes[i]
		s.mu.Lock()
		fn(&s.counts)
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the machine's counters: the per-stripe counts
// plus the per-node and global blocks. It takes every stripe that guards a
// line, one at a time, so it must never be called with a stripe held — from
// inside a section, a pre-transition callback or any other machine hook —
// where it would wait on its own stripe. Each field is read consistently,
// but the snapshot as a whole is not a single point in time when line
// operations are in flight (counters of one operation may land across two
// snapshots), which no consumer depends on.
func (m *Machine) Stats() Stats {
	var sum Stats
	m.eachStripe(func(c *stripeCounts) {
		sum.Reads += c.reads
		sum.Writes += c.writes
		sum.LocalHits += c.localHits
		sum.LineLockAcquires += c.lineLockAcquires
	})
	dst := sum.transitions()
	m.eachBlock(func(b *transitions) {
		for i, p := range b.counters() {
			*dst[i] += atomic.LoadInt64(p)
		}
	})
	return sum
}

// ResetStats zeroes the counters (the clock and memory state are unchanged).
// Like Stats, it takes each stripe in turn and must not be called with one
// held.
func (m *Machine) ResetStats() {
	m.eachStripe(func(c *stripeCounts) { *c = stripeCounts{} })
	m.eachBlock(func(b *transitions) {
		for _, p := range b.counters() {
			atomic.StoreInt64(p, 0)
		}
	})
}
