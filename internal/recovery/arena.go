package recovery

// recArena is one worker slot's reusable recovery scratch: the run
// boundaries of the batched redo apply, the apply phase's counter shard and
// a progress batch.
// Each slot is owned by exactly one goroutine at a time (the executor's
// worker w; the inline run at one worker or fewer is worker 0), so no
// locking; buffers grow to the high-water mark of the workload and are
// reused across phases and across Recover calls. Explicit reuse instead of
// sync.Pool is deliberate: pooled buffers migrate between
// goroutines at GC-dependent times, and while no recovery result may
// legally depend on buffer identity, keeping placement a pure function of
// the worker slot makes that property auditable rather than probabilistic.
type recArena struct {
	runs []redoRun
	// redo counts the redo decisions of the parts this slot applied in the
	// current apply phase (applyRedo zeroes it first and sums the slots).
	redo RecoveryReport
	// progress gathers the slot's probe or apply progress; the phase reports
	// every slot's remainder once its fan-out ends (flushArenas).
	progress progressBatch
}

// arena returns worker slot w's scratch arena. Slots are sized at New from
// RecoveryWorkers and topped up at Recover's entry if the caller raised it
// since; out-of-range callers (defensive — forEachChunk never hands out a
// slot >= RecoveryWorkers) get slot 0.
func (db *DB) arena(w int) *recArena {
	if w < 0 || w >= len(db.arenas) {
		w = 0
	}
	return &db.arenas[w]
}
