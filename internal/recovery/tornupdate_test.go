package recovery_test

import (
	"errors"
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
)

// TestTornEagerForceKeepsTheWrite pins the window between an update's slot
// write and its bookkeeping: under stable-lbm/eager the force that follows
// the slot write can be torn, taking the node down and the Update out with
// an error — but the slot already holds the new value and the log record
// exists, so the write must be on the transaction's write list. Without it
// the oracle cannot name the writer, and the undo restart recovery owes the
// crashed transaction reads as a committed value lost.
func TestTornEagerForceKeepsTheWrite(t *testing.T) {
	rid := heap.RID{Page: 0, Slot: 0}
	db, mgr := newDB(t, recovery.StableEager, 2)
	seed(t, mgr, []heap.RID{rid}, 1)

	id, err := db.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Plan{Seed: 1, PTornForce: 1})
	db.AttachFaults(inj)
	inj.Arm()
	err = db.Update(1, id, rid, []byte{9, 9, 9})
	inj.Disarm()
	db.AttachFaults(nil)
	if !errors.Is(err, machine.ErrNodeDown) {
		t.Fatalf("Update under a torn eager force = %v, want ErrNodeDown", err)
	}
	if n := db.WriteCount(id); n != 1 {
		t.Fatalf("WriteCount = %d after the slot was written, want 1", n)
	}

	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	for _, v := range db.CheckIFA(0) {
		if strings.Contains(v, "committed value lost") {
			t.Errorf("the crashed writer's undo was filed as a lost commit: %s", v)
		}
	}
	mustCheckIFA(t, db, 0)
}
