package machine

import "sync/atomic"

// Stats counts coherency traffic and failure events. The recovery
// experiments use these to relate protocol overheads to the sharing
// behaviour that causes them. Inside the Machine the counters are kept per
// acting node (nodeBlock) and updated with atomic adds; Stats() sums the
// blocks.
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

// nodeBlock is one node's clock and counters. The clock has a cache line to
// itself and the counters fill the next two, so a node charging its own
// operations never writes a line another node's operations write: with the
// clocks packed in one line and one shared counter block, every charge on
// one CPU invalidated the line under every other.
type nodeBlock struct {
	// clock is the node's simulated nanoseconds, accessed only atomically:
	// observability hooks in other layers (wal, buffer) need a node's
	// clock while a stripe may be held by a pre-transition callback higher
	// in the stack. Monotonic absolute stores go through maxStoreInt64.
	clock int64
	_     [56]byte
	// stats counts the operations this node issued, updated with atomic
	// adds (line operations hold only their line's stripe).
	stats Stats
}

// counters lists the address of every counter, in declaration order.
func (s *Stats) counters() [16]*int64 {
	return [16]*int64{
		&s.Reads, &s.Writes, &s.LocalHits, &s.RemoteFetches, &s.Migrations,
		&s.Downgrades, &s.Replications, &s.Invalidations, &s.Broadcasts,
		&s.Installs, &s.Discards, &s.LineLockAcquires, &s.LineLockContended,
		&s.TriggerFires, &s.Crashes, &s.LinesLost,
	}
}

// eachBlock calls fn on every counter block: one per node, then the global.
func (m *Machine) eachBlock(fn func(*Stats)) {
	for i := range m.nodes {
		fn(&m.nodes[i].stats)
	}
	fn(&m.global)
}

// Stats returns a snapshot of the machine's counters, summed over the
// per-node blocks. Each field is read atomically; the snapshot as a whole is
// not a single point in time when line operations are in flight (counters of
// one operation may land across two snapshots), which no consumer depends on.
func (m *Machine) Stats() Stats {
	var sum Stats
	dst := sum.counters()
	m.eachBlock(func(b *Stats) {
		for i, p := range b.counters() {
			*dst[i] += atomic.LoadInt64(p)
		}
	})
	return sum
}

// ResetStats zeroes the counters (the clock and memory state are unchanged).
func (m *Machine) ResetStats() {
	m.eachBlock(func(b *Stats) {
		for _, p := range b.counters() {
			atomic.StoreInt64(p, 0)
		}
	})
}
