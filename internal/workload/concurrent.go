package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/sched"
	"smdb/internal/txn"
)

// RunConcurrent drives the workload with one goroutine per live node — real
// parallelism against the thread-safe simulated machine, for stress tests
// and wall-clock benchmarks. Workers stop early when the stop channel
// closes or their node crashes (machine.ErrNodeDown); transactions in
// flight at that moment are left active, exactly as a crash would leave
// them, so the caller can proceed to Recover and CheckIFA. A worker that
// exits with an error stops its siblings too — nobody is left retrying
// ErrBlocked against a transaction no goroutine drives any more — and the
// first such error is the one returned.
//
// Unlike Run, interleaving is scheduler-dependent; per-worker PRNGs keep
// each node's operation stream (though not the global order) reproducible.
func (r *Runner) RunConcurrent(stop <-chan struct{}) (Result, error) {
	var (
		res      Result
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		opCount  atomic.Int64
		failed   = make(chan struct{}) // closed with the first worker error
	)
	rawStop := func() bool {
		select {
		case <-stop:
			return true
		case <-failed:
			return true
		default:
			return false
		}
	}
	// With a schedule session attached, every stop observation is a
	// scheduling point: recording captures the outcome each worker actually
	// saw (and where in the interleaving it saw it); replay feeds the
	// recorded outcome back instead of consulting the channel, so a
	// replayed worker stops at exactly the recorded step.
	stopFor := func(nd machine.NodeID) func() bool {
		if r.Sched == nil {
			return rawStop
		}
		actor := int32(nd)
		if r.Sched.Replaying() {
			return func() bool { return r.Sched.Point(actor, sched.SiteStop, 0) != 0 }
		}
		return func() bool {
			var v int64
			if rawStop() {
				v = 1
			}
			return r.Sched.Point(actor, sched.SiteStop, v) != 0
		}
	}
	start := r.DB.M.MaxClock()
	for _, nd := range r.DB.M.AliveNodes() {
		nd := nd
		wg.Add(1)
		r.live.Add(1)
		go func() {
			defer wg.Done()
			defer r.live.Add(-1)
			if r.Sched != nil {
				// Release the scheduler floor at every exit path, so the
				// next scheduled worker can run.
				defer r.Sched.Exit(int32(nd))
			}
			local, err := r.runWorker(nd, stopFor(nd), &opCount)
			mu.Lock()
			defer mu.Unlock()
			res.Committed += local.Committed
			res.Aborted += local.Aborted
			res.Reads += local.Reads
			res.Writes += local.Writes
			res.BlockedRetries += local.BlockedRetries
			res.Deadlocks += local.Deadlocks
			if err != nil && firstErr == nil {
				firstErr = err
				close(failed)
			}
		}()
	}
	wg.Wait()
	res.setSimTime(r.DB.M.MaxClock() - start)
	return res, firstErr
}

// runWorker executes one node's transaction quota.
func (r *Runner) runWorker(nd machine.NodeID, stopNow func() bool, opCount *atomic.Int64) (Result, error) {
	var res Result
	rng := rand.New(rand.NewSource(r.Spec.Seed + int64(nd)*7919))
	// retry is the shared stall loop: a stall is a lock wait, the freeze
	// window, or data destroyed by a crash that recovery has not yet repaired
	// (a commit/abort can meet the last two as well: undo walks read the heap).
	retry := func(op func() error) error {
		stalls, err := txn.RetryUntil(op, stopNow)
		res.BlockedRetries += stalls
		return err
	}
	for t := 0; t < r.Spec.TxnsPerNode; t++ {
		if stopNow() {
			return res, nil
		}
		tx, err := r.Mgr.Begin(nd)
		if errors.Is(err, machine.ErrNodeDown) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		willAbort := rng.Float64() < r.Spec.AbortFraction
		dead := false
		for op := 0; op < r.Spec.OpsPerTxn && !dead; op++ {
			rid := r.pickRIDWith(rng, nd)
			read := rng.Float64() < r.Spec.ReadFraction
			if stopNow() {
				return res, nil // leave the transaction in flight
			}
			err := retry(func() error {
				if read {
					_, err := tx.Read(rid)
					return err
				}
				return tx.Write(rid, []byte{byte(rng.Intn(250) + 2), byte(nd)})
			})
			switch {
			case err == nil:
				if read {
					res.Reads++
				} else {
					res.Writes++
				}
				opCount.Add(1)
			case left(err):
				return res, nil
			case errors.Is(err, txn.ErrDeadlock):
				// The victim's abort is a finalize like any other: a crash
				// between the verdict and the abort freezes it.
				res.Deadlocks++
				err := retry(tx.Abort)
				if left(err) {
					return res, nil
				}
				if err != nil {
					if r.DB.Cfg.Protocol.DeferredLogging() {
						// The negative control logged no undo information and
						// cannot abort; shed the victim's locks so nothing
						// waits on a transaction nobody will finish.
						_ = r.DB.ReleaseLocks(tx.ID())
						r.abandonedMu.Lock()
						r.abandoned = append(r.abandoned, tx.ID())
						r.abandonedMu.Unlock()
					}
					return res, err
				}
				res.Aborted++
				dead = true
			case errors.Is(err, txn.ErrNotFound):
				res.Reads++
			default:
				return res, fmt.Errorf("workload: node %d concurrent op on %v: %w", nd, rid, err)
			}
		}
		if dead {
			continue
		}
		fin := tx.Commit
		if willAbort {
			fin = tx.Abort
		}
		err = retry(fin)
		if left(err) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		if willAbort {
			res.Aborted++
		} else {
			res.Committed++
		}
	}
	return res, nil
}

// left reports whether a worker's retry loop ended because the worker must
// leave — the run was stopped mid-stall, or its node went down — with the
// transaction left in flight for recovery.
func left(err error) bool { return txn.Stalled(err) || errors.Is(err, machine.ErrNodeDown) }

// pickRIDWith is pickRID with an explicit PRNG (per-worker).
func (r *Runner) pickRIDWith(rng *rand.Rand, nd machine.NodeID) heap.RID {
	if rng.Float64() < r.Spec.SharingFraction && len(r.sp.shared) > 0 {
		pool := r.sp.shared
		if r.Spec.HotSpot > 0 && rng.Float64() < r.Spec.HotProb {
			hot := int(float64(len(pool)) * r.Spec.HotSpot)
			if hot < 1 {
				hot = 1
			}
			return pool[rng.Intn(hot)]
		}
		return pool[rng.Intn(len(pool))]
	}
	part := r.sp.private[nd]
	if len(part) == 0 {
		return r.sp.shared[rng.Intn(len(r.sp.shared))]
	}
	return part[rng.Intn(len(part))]
}
