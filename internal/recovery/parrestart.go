package recovery

import (
	"sync"
	"sync/atomic"
	"time"

	"smdb/internal/obs"
	"smdb/internal/obs/prof"
	"smdb/internal/storage"
)

// The restart pipeline's executor (the node-parallel reading of section
// 4.1.2): each surviving node can scan its own log, probe its own residency,
// and tag-scan its own cache independently, so every phase in restart.go
// hands its units to forEachChunk, which runs them inline up to one worker
// and across Cfg.RecoveryWorkers goroutines above. Determinism is preserved
// by partitioning along independence boundaries — per node for log scans,
// lock replay, and cache flushes; per page for redo (same-slot version
// decisions depend only on same-slot order, and a slot lives on exactly one
// page) — and by merging task results in a fixed order (node order,
// candidate-list order). Post-recovery database state, abort sets, and the
// Redo/Undo counters are identical at every worker count; only host wall clock
// and the incidental simulated interleaving change.

// ParPhase records one parallel fan-out of restart recovery: which phase ran
// fanned out, over how many goroutines, and the host wall-clock time the
// fan-out took (the quantity fanning out exists to shrink; simulated time is
// tracked separately by RecoveryReport.Phases).
type ParPhase struct {
	Phase  obs.Phase
	Fanout int
	Wall   time.Duration
}

// forEachChunk runs f(0..n-1), the one way a restart phase runs its units.
// It reads the worker count itself (parWorkers, capped at n).
//
// Up to one worker the tasks run inline, in index order, and the loop stops
// at the first error: the tasks after it do not run. With no profiler
// attached this path allocates nothing and reads no clock; with one, the
// whole loop is attributed as a one-worker fan-out so every run produces the
// same busy accounting shape. Nothing is recorded in rep.ParPhases.
//
// Above one worker the index space is pre-cut into contiguous
// weight-balanced chunks (see balanceChunks; weight may be nil for unit
// weights), and the goroutines claim whole chunks through one atomic cursor
// until the queue drains. The fan-out is recorded under phase in
// rep.ParPhases. Every task runs exactly once even after another task fails
// — recovery tasks are idempotent and a retrying Recover would repeat them
// anyway, so draining is simpler than cancellation and keeps the
// shard-merge logic unconditional — and the lowest-index error is returned,
// so the surfaced error does not depend on scheduling. Either way a phase
// gets back the error of the first failing task in index order; it must not
// assume the tasks after that one were skipped, nor that they ran.
//
// f receives the task index i and the claiming worker's slot w (0 <=
// w < workers, stable for that goroutine; always 0 inline) so tasks can use
// per-worker scratch arenas without locking; which worker runs which task is
// the one scheduling-dependent input, so f must never let w influence
// results — only placement of reusable scratch.
//
// With a profiler attached, each worker owns a TaskMeter: task busy time is
// measured around every f call, and tasks report records/bytes through the
// meter (nil when profiling is off — TaskMeter methods are nil-safe, but
// tasks that would do extra counting work guard on tm != nil).
func (db *DB) forEachChunk(rep *RecoveryReport, phase obs.Phase, n int, weight func(int) int, f func(i, w int, tm *prof.TaskMeter) error) error {
	workers := min(db.parWorkers(), n)
	wp := db.hk.Load().Workers()
	if workers <= 1 {
		if wp == nil {
			for i := 0; i < n; i++ {
				if err := f(i, 0, nil); err != nil {
					return err
				}
			}
			return nil
		}
		start := time.Now()
		meters := make([]prof.TaskMeter, 1)
		var ferr error
		for i := 0; i < n; i++ {
			t0 := prof.Now()
			err := f(i, 0, &meters[0])
			meters[0].AddTask(prof.Now() - t0)
			if err != nil {
				ferr = err
				break
			}
		}
		db.recordFanout(wp, phase, 1, time.Since(start), meters)
		return ferr
	}
	start := time.Now()
	chunks := balanceChunks(n, workers, weight)
	errs := make([]error, n)
	var meters []prof.TaskMeter
	if wp != nil {
		meters = make([]prof.TaskMeter, workers)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tm *prof.TaskMeter
			if meters != nil {
				tm = &meters[w]
			}
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(chunks) {
					return
				}
				for i := chunks[ci].lo; i < chunks[ci].hi; i++ {
					if tm != nil {
						t0 := prof.Now()
						errs[i] = f(i, w, tm)
						tm.AddTask(prof.Now() - t0)
					} else {
						errs[i] = f(i, w, nil)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	rep.ParPhases = append(rep.ParPhases, ParPhase{Phase: phase, Fanout: workers, Wall: wall})
	db.recordFanout(wp, phase, workers, wall, meters)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recordFanout feeds one completed fan-out into the worker profiler and, when
// an observer is attached, emits a KindProfFanout span so the fan-out shows
// up in the Chrome trace (anchored at the recovery's simulated position, with
// host wall-clock duration and summed worker busy time as args).
func (db *DB) recordFanout(wp *prof.WorkerProf, phase obs.Phase, workers int, wall time.Duration, meters []prof.TaskMeter) {
	if wp == nil {
		return
	}
	wp.RecordFanout(phase.String(), wall.Nanoseconds(), meters)
	var busy int64
	for i := range meters {
		busy += meters[i].BusyNS
	}
	db.hk.Load().Observer.Record(obs.Event{
		Kind: obs.KindProfFanout, Phase: phase, Node: obs.SystemNode,
		Sim: db.M.MaxClock(), Dur: wall.Nanoseconds(),
		A: int64(workers), B: busy,
	})
}

// profMergeStart/profMergeEnd bracket a sequential merge step (concatenation,
// shard roll-up, dedupe) so the profiler can separate merge cost from worker
// busy time. With no profiler attached both are single branch no-ops.
func profMergeStart(db *DB) int64 {
	if db.hk.Load().Workers() == nil {
		return -1
	}
	return prof.Now()
}

func profMergeEnd(db *DB, phase obs.Phase, start int64) {
	if start < 0 {
		return
	}
	db.hk.Load().Workers().AddMerge(phase.String(), prof.Now()-start)
}

// pageBuckets partitions redo candidates by page, preserving candidate-list
// order within each bucket (redoParts' shape above one worker). Buckets are
// ordered by first appearance, so the partition itself is deterministic.
func pageBuckets(cands []redoCand) [][]redoCand {
	idx := make(map[storage.PageID]int)
	var buckets [][]redoCand
	for _, c := range cands {
		i, ok := idx[c.rec.Page]
		if !ok {
			i = len(buckets)
			idx[c.rec.Page] = i
			buckets = append(buckets, nil)
		}
		buckets[i] = append(buckets[i], c)
	}
	return buckets
}
