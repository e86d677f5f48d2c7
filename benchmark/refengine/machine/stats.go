package machine

import "sync/atomic"

// Stats counts coherency traffic and failure events. The recovery
// experiments use these to relate protocol overheads to the sharing
// behaviour that causes them. Inside the Machine every field is updated
// with atomic adds (line operations hold only their line's stripe, so a
// single non-atomic counter block would race); Stats() assembles a
// field-by-field atomic snapshot.
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

// Stats returns a snapshot of the machine's counters. Each field is read
// atomically; the snapshot as a whole is not a single point in time when
// line operations are in flight (counters of one operation may land across
// two snapshots), which no consumer depends on.
func (m *Machine) Stats() Stats {
	return Stats{
		Reads:             atomic.LoadInt64(&m.stats.Reads),
		Writes:            atomic.LoadInt64(&m.stats.Writes),
		LocalHits:         atomic.LoadInt64(&m.stats.LocalHits),
		RemoteFetches:     atomic.LoadInt64(&m.stats.RemoteFetches),
		Migrations:        atomic.LoadInt64(&m.stats.Migrations),
		Downgrades:        atomic.LoadInt64(&m.stats.Downgrades),
		Replications:      atomic.LoadInt64(&m.stats.Replications),
		Invalidations:     atomic.LoadInt64(&m.stats.Invalidations),
		Broadcasts:        atomic.LoadInt64(&m.stats.Broadcasts),
		Installs:          atomic.LoadInt64(&m.stats.Installs),
		Discards:          atomic.LoadInt64(&m.stats.Discards),
		LineLockAcquires:  atomic.LoadInt64(&m.stats.LineLockAcquires),
		LineLockContended: atomic.LoadInt64(&m.stats.LineLockContended),
		TriggerFires:      atomic.LoadInt64(&m.stats.TriggerFires),
		Crashes:           atomic.LoadInt64(&m.stats.Crashes),
		LinesLost:         atomic.LoadInt64(&m.stats.LinesLost),
	}
}

// ResetStats zeroes the counters (the clock and memory state are unchanged).
func (m *Machine) ResetStats() {
	for _, p := range []*int64{
		&m.stats.Reads, &m.stats.Writes, &m.stats.LocalHits,
		&m.stats.RemoteFetches, &m.stats.Migrations, &m.stats.Downgrades,
		&m.stats.Replications, &m.stats.Invalidations, &m.stats.Broadcasts,
		&m.stats.Installs, &m.stats.Discards, &m.stats.LineLockAcquires,
		&m.stats.LineLockContended, &m.stats.TriggerFires, &m.stats.Crashes,
		&m.stats.LinesLost,
	} {
		atomic.StoreInt64(p, 0)
	}
}
