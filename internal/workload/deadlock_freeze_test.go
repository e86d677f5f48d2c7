package workload

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }

// TestDeadlockAbortRetriesAcrossFreeze pins the other finalize the worker
// performs: the abort of a deadlock victim. A node can crash between the
// lock manager's verdict and the victim's Abort call; the abort then meets
// the freeze window (txn.ErrBlocked) exactly as a voluntary commit or abort
// can, and must be retried until recovery lifts the freeze — not reported as
// the run's error, which is how chaos episodes used to die with a bare
// "txn: waiting for lock" on hosts with two or more CPUs.
//
// The choreography is deterministic. The worker (node 1, so that its
// transaction is the younger one and the deadlock victim) writes A, then B;
// between the two, a node-0 transaction takes B and queues on A, closing the
// cycle. The lock manager reports the worker's verdict through the observer
// just before returning ErrDeadlock, and the test crashes node 0 at that
// instant.
func TestDeadlockAbortRetriesAcrossFreeze(t *testing.T) {
	db := chaosDB(t, recovery.VolatileSelectiveRedo, 2)
	if err := Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(db, Spec{TxnsPerNode: 1, OpsPerTxn: 2})
	ridA := heap.RID{Page: 1, Slot: 0}
	ridB := heap.RID{Page: 2, Slot: 0}
	r.sp.private[1] = []heap.RID{ridA}

	const worker, victim = machine.NodeID(1), machine.NodeID(0)
	var crashed bool
	o := obs.NewWithCapacity(64)
	o.SetSink(sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindDeadlock && e.Node == int32(worker) && !crashed {
			crashed = true
			db.Crash(victim)
		}
	}))
	db.AttachObserver(o)

	var recovered bool
	calls := 0
	probe := func() bool {
		calls++
		switch {
		case calls == 2: // op 1's target (A) is picked; feed op 2
			r.sp.private[1] = []heap.RID{ridB}
		case calls == 3:
			// The worker holds A and is about to ask for B. Node 0 takes B
			// and queues behind the worker on A.
			t0, err := r.Mgr.Begin(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := t0.Write(ridB, []byte{9, 1}); err != nil {
				t.Fatalf("node 0 taking B: %v", err)
			}
			if err := t0.Write(ridA, []byte{9, 2}); !errors.Is(err, txn.ErrBlocked) {
				t.Fatalf("node 0 asking for A: err = %v, want ErrBlocked", err)
			}
		case calls > 3 && !recovered:
			// Only the victim's abort retry probes past call 3.
			if !crashed {
				t.Fatal("abort stalled before the deadlock verdict crashed node 0")
			}
			if !db.Frozen() {
				t.Error("abort stalled outside the freeze window")
			}
			if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			recovered = true
		}
		return false
	}

	var ops atomic.Int64
	res, werr := r.runWorker(worker, probe, &ops)
	if werr != nil {
		t.Fatalf("deadlock-victim abort surfaced a retryable stall as fatal: %v", werr)
	}
	if !crashed {
		t.Fatal("choreography failed: the worker was never the deadlock victim")
	}
	if !recovered {
		t.Fatal("abort finished without ever stalling on the freeze window")
	}
	if res.Writes != 1 || res.Deadlocks != 1 || res.Aborted != 1 || res.Committed != 0 {
		t.Errorf("worker result = %+v, want 1 write, 1 deadlock, 1 abort", res)
	}
	if res.BlockedRetries == 0 {
		t.Error("abort retry was never counted")
	}

	// End state: the retried abort restored A, and node 0's uncommitted
	// write of B died with it.
	check, err := r.Mgr.Begin(worker)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Abort()
	for _, want := range []struct {
		rid heap.RID
		val []byte
	}{{ridA, []byte{1, 1, 0}}, {ridB, []byte{1, 2, 0}}} {
		var got []byte
		if err := txn.Retry(func() error {
			var err error
			got, err = check.Read(want.rid)
			return err
		}); err != nil {
			t.Fatalf("post-recovery read %v: %v", want.rid, err)
		}
		if !bytes.HasPrefix(got, want.val) { // slots read back zero-padded
			t.Errorf("post-recovery %v = %v, want prefix %v", want.rid, got, want.val)
		}
	}
}
