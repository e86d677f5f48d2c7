package workload

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// TestFinalizeRetriesLineLostAcrossFreeze pins the frozen-window finalize
// race from the ROADMAP watch item: a survivor already past Abort's freeze
// check carries its undo walk into a crash, and the next heap access lands
// on a line the crash destroyed — machine.ErrLineLost surfaces from the
// finalize call, not from an op. The worker's finalize loop must retry it
// (like the op loop always has) until recovery repairs the line, instead of
// reporting it as a fatal runner outcome.
//
// The choreography is deterministic: the worker runs three single-line
// writes whose targets the test picks one call at a time through the
// stop-probe hook; before the last op, a node-1 transaction steals the first
// two ops' lines (plus their page headers) and commits, and a transition
// fault is armed to crash node 1 the moment the undo walk migrates any of
// those lines back. The machine fires injected transition faults after the
// triggering migration completes, so the abort survives its first
// re-fetched line and then finds the remaining stolen lines gone.
func TestFinalizeRetriesLineLostAcrossFreeze(t *testing.T) {
	db := chaosDB(t, recovery.VolatileSelectiveRedo, 2)
	if err := Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(db, Spec{TxnsPerNode: 1, OpsPerTxn: 3, AbortFraction: 1})

	// The worker's three ops, fed one at a time via the stop probe; B and D
	// share cache lines with A and C (RecsPerLine = 4), so node 1 writing
	// them steals the very lines the abort must undo.
	ridA := heap.RID{Page: 1, Slot: 0}
	ridB := heap.RID{Page: 1, Slot: 1}
	ridC := heap.RID{Page: 2, Slot: 0}
	ridD := heap.RID{Page: 2, Slot: 1}
	ridE := heap.RID{Page: 3, Slot: 0}
	r.sp.private[0] = []heap.RID{ridA}

	lineA, _, err := db.Store.LineOf(ridA)
	if err != nil {
		t.Fatal(err)
	}
	lineC, _, err := db.Store.LineOf(ridC)
	if err != nil {
		t.Fatal(err)
	}
	stolen := map[machine.LineID]bool{
		lineA: true, db.Store.HeaderLine(ridA.Page): true,
		lineC: true, db.Store.HeaderLine(ridC.Page): true,
	}

	var armed, fired bool
	db.M.SetTransitionFault(func(ev machine.Event, _ int) []machine.NodeID {
		if !armed || fired || ev.From != 1 || !stolen[ev.Line] {
			return nil
		}
		fired = true
		return []machine.NodeID{1}
	})
	defer db.M.SetTransitionFault(nil)

	victim := machine.NodeID(1)
	var recovered bool
	calls := 0
	probe := func() bool {
		calls++
		switch {
		case calls == 2: // op 1's target (A) is picked; feed op 2
			r.sp.private[0] = []heap.RID{ridC}
		case calls == 3: // op 2's target (C) is picked; feed op 3
			r.sp.private[0] = []heap.RID{ridE}
		case calls == 4:
			// Steal A's and C's lines to node 1 with committed sibling-slot
			// writes, then arm the crash for the undo walk's re-fetch. Op 3
			// (E) touches neither line, so the fault stays quiet until the
			// finalize.
			t1, err := r.Mgr.Begin(victim)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				rid heap.RID
				val []byte
			}{{ridB, []byte{9, 1}}, {ridD, []byte{9, 2}}} {
				w := w
				if err := txn.Retry(func() error { return t1.Write(w.rid, w.val) }); err != nil {
					t.Fatalf("stealing write %v: %v", w.rid, err)
				}
			}
			if err := txn.Retry(t1.Commit); err != nil {
				t.Fatal(err)
			}
			armed = true
		case calls > 4 && !recovered:
			// Only the finalize retry loop probes past call 4: the abort
			// stalled on crash-destroyed data inside the freeze window.
			// Repair it and let the retry finish the undo.
			if !fired {
				t.Fatal("finalize stalled before the armed crash fired")
			}
			if !db.Frozen() {
				t.Error("finalize stalled outside the freeze window")
			}
			if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			recovered = true
		}
		return false
	}

	var ops atomic.Int64
	res, werr := r.runWorker(0, probe, &ops)
	if werr != nil {
		t.Fatalf("finalize surfaced a retryable stall as fatal: %v", werr)
	}
	if !fired {
		t.Fatal("choreography failed: the transition fault never fired")
	}
	if !recovered {
		t.Fatal("abort finished without ever stalling on the lost line")
	}
	if res.Writes != 3 || res.Aborted != 1 || res.Committed != 0 {
		t.Errorf("worker result = %+v, want 3 writes and 1 abort", res)
	}
	if res.BlockedRetries == 0 {
		t.Error("finalize retry was never counted")
	}

	// End state: the retried abort restored the seeded values, and node 1's
	// committed steals survived its crash.
	check, err := r.Mgr.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Abort()
	for _, want := range []struct {
		rid heap.RID
		val []byte
	}{
		{ridA, []byte{1, 1, 0}},
		{ridC, []byte{1, 2, 0}},
		{ridE, []byte{1, 3, 0}},
		{ridB, []byte{9, 1}},
		{ridD, []byte{9, 2}},
	} {
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

// TestStallContract pins the one stall loop every concurrent driver shares
// (txn.RetryUntil): a stall is ErrBlocked or machine.ErrLineLost and is
// retried; anything else — machine.ErrNodeDown included — is returned; stop
// is consulted after each stall and never before the first attempt.
func TestStallContract(t *testing.T) {
	unknown := errors.New("unknown")
	for _, c := range []struct {
		name      string
		results   []error // op's successive results
		stopAfter int     // stop reports true from its n-th call on (0 = never)
		wantErr   error
		wantCalls int // of op
		wantStops int // of stop
	}{
		{"success first try", []error{nil}, 0, nil, 1, 0},
		{"blocked then success", []error{txn.ErrBlocked, txn.ErrBlocked, nil}, 0, nil, 3, 2},
		{"line lost then success", []error{machine.ErrLineLost, nil}, 0, nil, 2, 1},
		{"wrapped stalls", []error{fmt.Errorf("op: %w", txn.ErrBlocked), fmt.Errorf("op: %w", machine.ErrLineLost), nil}, 0, nil, 3, 2},
		{"node down is final", []error{txn.ErrBlocked, machine.ErrNodeDown}, 0, machine.ErrNodeDown, 2, 1},
		{"deadlock is final", []error{txn.ErrDeadlock}, 0, txn.ErrDeadlock, 1, 0},
		{"unknown is final", []error{machine.ErrLineLost, unknown}, 0, unknown, 2, 1},
		{"stop already set, success", []error{nil}, 1, nil, 1, 0},
		{"stop already set, stall", []error{txn.ErrBlocked, nil}, 1, txn.ErrBlocked, 1, 1},
		{"stopped at the second stall", []error{txn.ErrBlocked, machine.ErrLineLost, nil}, 2, machine.ErrLineLost, 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls, stops := 0, 0
			stalls, err := txn.RetryUntil(func() error {
				calls++
				return c.results[calls-1]
			}, func() bool {
				stops++
				return c.stopAfter > 0 && stops >= c.stopAfter
			})
			if !errors.Is(err, c.wantErr) || (c.wantErr == nil && err != nil) {
				t.Errorf("err = %v, want %v", err, c.wantErr)
			}
			if calls != c.wantCalls || stops != c.wantStops {
				t.Errorf("op ran %d times and stop %d; want %d and %d", calls, stops, c.wantCalls, c.wantStops)
			}
			if stalls != c.wantStops {
				t.Errorf("stalls = %d, want one per stop call (%d)", stalls, c.wantStops)
			}
			if got := txn.Stalled(err); got != (c.wantErr == txn.ErrBlocked || c.wantErr == machine.ErrLineLost) {
				t.Errorf("Stalled(%v) = %v", err, got)
			}
		})
	}
	// No stop function: Retry is the same loop.
	n := 0
	if err := txn.Retry(func() error {
		if n++; n < 3 {
			return machine.ErrLineLost
		}
		return machine.ErrNodeDown
	}); !errors.Is(err, machine.ErrNodeDown) || n != 3 {
		t.Errorf("Retry = %v after %d attempts", err, n)
	}
}
