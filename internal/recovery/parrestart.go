package recovery

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/prof"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// Parallel restart recovery (the node-parallel reading of section 4.1.2):
// each surviving node can scan its own log, probe its own residency, and
// tag-scan its own cache independently, so the pipeline fans those units out
// across Cfg.RecoveryWorkers goroutines. Determinism is preserved by
// partitioning along independence boundaries — per node for log scans, lock
// replay, and cache flushes; per page for redo (same-slot version decisions
// depend only on same-slot order, and a slot lives on exactly one page) —
// and by merging worker results in a fixed order (node order, candidate-list
// order). Post-recovery database state, abort sets, and the Redo/Undo
// counters are identical at every worker count; only host wall clock and the
// incidental simulated interleaving change.

// ParPhase records one parallel fan-out of restart recovery: which phase ran
// fanned out, over how many goroutines, and the host wall-clock time the
// fan-out took (the quantity the parallel pipeline exists to shrink;
// simulated time is tracked separately by RecoveryReport.Phases).
type ParPhase struct {
	Phase  obs.Phase
	Fanout int
	Wall   time.Duration
}

// forEachPar runs f(0..n-1) with unit chunk weights and no worker-slot
// awareness — the compatibility wrapper over forEachChunk for fan-outs whose
// tasks are roughly even or too few to matter.
func (db *DB) forEachPar(rep *RecoveryReport, phase obs.Phase, n, workers int, f func(i int, tm *prof.TaskMeter) error) error {
	return db.forEachChunk(rep, phase, n, workers, nil, func(i, _ int, tm *prof.TaskMeter) error {
		return f(i, tm)
	})
}

// forEachChunk runs f(0..n-1) across at most workers goroutines with
// dynamic chunked work-stealing: the index space is pre-cut into contiguous
// weight-balanced chunks (see balanceChunks; weight may be nil for unit
// weights), and workers claim whole chunks through one atomic cursor until
// the queue drains. The fan-out is recorded under phase in rep.ParPhases,
// and the lowest-index error is returned (so the surfaced error does not
// depend on scheduling). Every task runs exactly once even after another
// task fails — recovery tasks are idempotent and a retrying Recover would
// repeat them anyway, so draining is simpler than cancellation and keeps
// the shard-merge logic unconditional.
//
// f receives the task index i and the claiming worker's slot w (0 <=
// w < workers, stable for that goroutine) so tasks can use per-worker
// scratch arenas without locking; which worker runs which task is the one
// scheduling-dependent input, so f must never let w influence results —
// only placement of reusable scratch.
//
// With a profiler attached, each worker owns a TaskMeter: task busy time is
// measured around every f call, and tasks report records/bytes through the
// meter (nil when profiling is off — TaskMeter methods are nil-safe, but
// tasks that would do extra counting work guard on tm != nil). The inline
// workers<=1 path stays allocation- and clock-free when no profiler is
// attached; when one is, the whole loop is attributed as a one-worker
// fan-out so sequential runs produce the same busy accounting shape the
// parallel pipeline does.
func (db *DB) forEachChunk(rep *RecoveryReport, phase obs.Phase, n, workers int, weight func(int) int, f func(i, w int, tm *prof.TaskMeter) error) error {
	if workers > n {
		workers = n
	}
	wp := db.profWorkers()
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
	chunks := balanceChunks(n, workers, db.Cfg.RecoveryStealGrain, weight)
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
	db.Observer().Record(obs.Event{
		Kind: obs.KindProfFanout, Phase: phase, Node: obs.SystemNode,
		Sim: db.M.MaxClock(), Dur: wall.Nanoseconds(),
		A: int64(workers), B: busy,
	})
}

// flushAllCachesPar discards every surviving node's cached database lines,
// one DiscardAll sweep per node, fanned out across the workers (Redo All
// step 1; nodes' discard sets are disjoint except for shared lines, which
// DiscardAll drops per-holder under the line's stripe). Chunks are weighted
// by cached-line counts so one hot node's sweep does not strand the rest.
func (db *DB) flushAllCachesPar(alive []machine.NodeID, rep *RecoveryReport, w int) {
	lineSize := db.M.LineSize()
	weight := func(i int) int { return db.M.CachedLineCount(alive[i]) }
	// DiscardAll cannot fail; forEachChunk's error is structurally nil.
	_ = db.forEachChunk(rep, obs.PhaseRedoScan, len(alive), w, weight, func(i, _ int, tm *prof.TaskMeter) error {
		dropped := db.M.DiscardAll(alive[i], db.Store.Contains)
		if tm != nil {
			tm.AddRecords(dropped)
			tm.AddBytes(dropped * lineSize)
		}
		return nil
	})
}

// collectRedoPar is the parallel redo scan: one goroutine per node's log,
// weighted by log length, with the per-node candidate lists concatenated in
// node order — exactly the sequential scan's output. The workers only read
// the view set; each fills its own slot of parts.
func (db *DB) collectRedoPar(vs []*logView, coord machine.NodeID, rep *RecoveryReport, w int) []redoCand {
	parts := make([][]redoCand, len(vs))
	weight := func(i int) int { return db.Logs[i].Len() }
	// collectRedoNode cannot fail; forEachChunk's error is structurally nil.
	_ = db.forEachChunk(rep, obs.PhaseRedoScan, len(vs), w, weight, func(i, ws int, tm *prof.TaskMeter) error {
		parts[i] = db.collectRedoNode(vs[i], coord, nil)
		if tm != nil {
			tm.AddRecords(len(parts[i]))
			b := 0
			for _, c := range parts[i] {
				b += len(c.rec.Before) + len(c.rec.After)
			}
			tm.AddBytes(b)
		}
		return nil
	})
	mergeStart := profMergeStart(db)
	cands := slices.Concat(parts...)
	profMergeEnd(db, obs.PhaseRedoScan, mergeStart)
	return cands
}

// profMergeStart/profMergeEnd bracket a sequential merge step (concatenation,
// shard roll-up, dedupe) so the profiler can separate merge cost from worker
// busy time. With no profiler attached both are single branch no-ops.
func profMergeStart(db *DB) int64 {
	if db.profWorkers() == nil {
		return -1
	}
	return prof.Now()
}

func profMergeEnd(db *DB, phase obs.Phase, start int64) {
	if start < 0 {
		return
	}
	db.profWorkers().AddMerge(phase.String(), prof.Now()-start)
}

// pageBuckets partitions redo candidates by page, preserving candidate-list
// order within each bucket. Buckets are ordered by first appearance, so the
// partition itself is deterministic.
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

// probeRedoPar probes residency page-bucket-parallel: all of one page's
// candidates (hence all of its lines and its one header line) belong to one
// worker, so concurrent workers fetch disjoint pages. Chunks are weighted by
// bucket size — the hot page's bucket dominated the old per-bucket handout.
func (db *DB) probeRedoPar(cands []redoCand, rep *RecoveryReport, w int) error {
	buckets := pageBuckets(cands)
	weight := func(i int) int { return len(buckets[i]) }
	return db.forEachChunk(rep, obs.PhaseProbe, len(buckets), w, weight, func(i, _ int, tm *prof.TaskMeter) error {
		tm.AddRecords(len(buckets[i]))
		return db.probeRedoSlice(buckets[i])
	})
}

// applyRedoPar applies redo page-bucket-parallel with per-bucket counter
// shards, merged in bucket order: same-page candidates keep their list order,
// so every version-check decision — and therefore RedoApplied/RedoSkipped —
// matches the sequential pipeline exactly. Each worker slot applies through
// its own reusable arena (run carving + tag scratch), and chunks are
// weighted by bucket size.
func (db *DB) applyRedoPar(cands []redoCand, rep *RecoveryReport, w int) error {
	buckets := pageBuckets(cands)
	shards := make([]RecoveryReport, len(buckets))
	weight := func(i int) int { return len(buckets[i]) }
	err := db.forEachChunk(rep, obs.PhaseRedoApply, len(buckets), w, weight, func(i, ws int, tm *prof.TaskMeter) error {
		if tm != nil {
			tm.AddRecords(len(buckets[i]))
			b := 0
			for _, c := range buckets[i] {
				b += len(c.rec.After)
			}
			tm.AddBytes(b)
		}
		return db.applyRedoSlice(buckets[i], &shards[i], db.arena(ws))
	})
	mergeStart := profMergeStart(db)
	for i := range shards {
		rep.RedoApplied += shards[i].RedoApplied
		rep.RedoSkipped += shards[i].RedoSkipped
	}
	profMergeEnd(db, obs.PhaseRedoApply, mergeStart)
	return err
}

// undoTagScanPar runs the Selective Redo undo scan in three steps: parallel
// tagger-index builds (read-only log scans), parallel read-only cache scans,
// then a node-order merge deduplicated by rid feeding the sequential apply.
// The dedupe reproduces the sequential pipeline's "first scanner fixes it"
// outcome: sequentially, an applied repair migrates the line exclusively to
// the fixer, so later nodes never rescan it; with read-only parallel scans
// every holder of a shared line reports it, and keeping only the first
// (lowest alive-order) action per rid yields the same repair set, applied by
// the same node, in the same order — so UndoApplied matches exactly.
// TagScanLines may legitimately differ (shared lines are counted once per
// holder here), which is why the equivalence gate excludes it.
func (db *DB) undoTagScanPar(alive, crashed []machine.NodeID, vs []*logView, rep *RecoveryReport, w int) error {
	down := nodeSet(crashed)
	// Tagger indexes for every survivor up front: the scans below read them
	// concurrently, so the lazy build of the sequential path would race.
	idx := make([]map[slotVer]wal.TxnID, db.M.Nodes())
	logWeight := func(i int) int { return db.Logs[alive[i]].Len() }
	if err := db.forEachChunk(rep, obs.PhaseUndoTagScan, len(alive), w, logWeight, func(i, _ int, tm *prof.TaskMeter) error {
		idx[alive[i]] = buildTaggerIndex(vs[alive[i]])
		tm.AddRecords(len(idx[alive[i]]))
		return nil
	}); err != nil {
		return err
	}
	taggerIndex := func(n machine.NodeID) map[slotVer]wal.TxnID { return idx[n] }
	acts := make([][]tagAction, len(alive))
	lines := make([]int, len(alive))
	cacheWeight := func(i int) int { return db.M.CachedLineCount(alive[i]) }
	if err := db.forEachChunk(rep, obs.PhaseUndoTagScan, len(alive), w, cacheWeight, func(i, _ int, tm *prof.TaskMeter) error {
		a, l, err := db.scanNodeTags(alive[i], down, taggerIndex)
		acts[i], lines[i] = a, l
		tm.AddRecords(l)
		return err
	}); err != nil {
		return err
	}
	mergeStart := profMergeStart(db)
	seen := make(map[heap.RID]bool)
	var merged []tagAction
	for i := range acts {
		rep.TagScanLines += lines[i]
		for _, a := range acts[i] {
			if seen[a.rid] {
				continue
			}
			seen[a.rid] = true
			merged = append(merged, a)
		}
	}
	profMergeEnd(db, obs.PhaseUndoTagScan, mergeStart)
	return db.applyTagActions(merged, vs, rep)
}

// replaySurvivorLocksPar replays lock logs one goroutine per surviving node.
// Pre-crash holdings across nodes were simultaneously granted, hence
// compatible, so concurrent re-grants never wait on each other; Acquire is
// idempotent, so the per-node counts are order-independent. The caller holds
// the log-suppression latch.
func (db *DB) replaySurvivorLocksPar(alive []machine.NodeID, vs []*logView, rep *RecoveryReport, w int) (int, error) {
	counts := make([]int, len(alive))
	weight := func(i int) int { return db.Logs[alive[i]].Len() }
	err := db.forEachChunk(rep, obs.PhaseLockRebuild, len(alive), w, weight, func(i, _ int, tm *prof.TaskMeter) error {
		n, err := db.replayNodeLocks(vs[alive[i]])
		counts[i] = n
		tm.AddRecords(n)
		return err
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, err
}
