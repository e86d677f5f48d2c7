package recovery_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
)

// perNodeTableView is what TestPerNodeTablesMatchGlobalTable's scenario
// printed at the commit before the transaction table, the protocol counters
// and the oracle were split per node: everything below came out of one
// global table under one mutex. The lock-space counts were re-recorded when
// lock-table searches began to stop at a name's own tombstone: fewer peeks
// leave fewer shared copies of LCB lines on survivors, so the crashes destroy
// more of them (LCBsRebuilt 25 -> 29) and leave fewer crashed transactions'
// entries in surviving ones (LockEntriesReleased 4 -> 2).
const perNodeTableView = `active before ckpt: [t0.7 t1.4 t1.11 t2.2 t2.9 t3.7]
active on node 2: [t2.2 t2.9]
first LSN after ckpt: [226 52 19 92]
wave 1 aborted: [t3.7 t3.14] redo 4/40 undo 2
active after wave 1: [t0.7 t0.14 t1.4 t1.11 t2.2 t2.9]
wave 2 aborted: [t1.4 t1.11 t2.2 t2.9 t2.16] redo 64/35 undo 8
active after wave 2: [t0.7 t0.14 t0.20]
stats: {Updates:337 Inserts:48 Deletes:0 Commits:51 Aborts:19 CommitForces:51 LBMForces:0 NTAForces:0 TagWrites:385 TagClears:232 UndoTagBytes:385 RedoApplied:68 RedoSkipped:75 UndoApplied:10 TxnsAbortedByRecovery:7 LCBsRebuilt:29 LockEntriesReleased:2}
images: c04112cfd5bf03df
ifa violations: 0 durability violations: 0`

// TestPerNodeTablesMatchGlobalTable runs a seeded single-goroutine scenario —
// transactions interleaved over four nodes, some left open, some aborted, a
// checkpoint, then two crash waves — and compares everything that is
// answered from the transaction tables, the counters and the oracle
// (ActiveTxns, Checkpoint's low-water marks, the recovery abort sets, Stats,
// CheckIFA, the final images) with what the single global table gave.
func TestPerNodeTablesMatchGlobalTable(t *testing.T) {
	db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 4)
	slots := db.Store.Layout.SlotsPerPage()
	var all []heap.RID
	for p := 0; p < 4; p++ {
		for s := 0; s < slots; s++ {
			all = append(all, heap.RID{Page: storage.PageID(p), Slot: uint16(s)})
		}
	}
	seed(t, mgr, all, 1)
	rng := rand.New(rand.NewSource(42))
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	// round runs one transaction on nd over its own page: every seventh
	// stays open, every fifth of the rest aborts. Open transactions keep to
	// slots of their own in the first half of the page and finished ones to
	// the second half, so nothing ever waits for a lock.
	step := 0
	opens := make([]int, 4)
	round := func(nd machine.NodeID) {
		t.Helper()
		step++
		tx, err := mgr.Begin(nd)
		if err != nil {
			t.Fatal(err)
		}
		open := step%7 == 0
		writes := 4 + rng.Intn(3)
		if open {
			writes = 2
		}
		for k := 0; k < writes; k++ {
			slot := slots/2 + rng.Intn(slots/2)
			if open {
				slot = (opens[nd]*2 + k) % (slots / 2)
			}
			rid := heap.RID{Page: storage.PageID(nd), Slot: uint16(slot)}
			if err := tx.Write(rid, []byte{byte(step), byte(k)}); err != nil {
				t.Fatalf("step %d write %v: %v", step, rid, err)
			}
		}
		if open {
			opens[nd]++
		}
		switch {
		case step%7 == 0:
		case step%5 == 0:
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	recoverFrom := func(wave int, nodes ...machine.NodeID) {
		t.Helper()
		db.Crash(nodes...)
		rep, err := db.Recover(nodes)
		if err != nil {
			t.Fatal(err)
		}
		say("wave %d aborted: %v redo %d/%d undo %d", wave, rep.Aborted, rep.RedoApplied, rep.RedoSkipped, rep.UndoApplied)
		say("active after wave %d: %v", wave, db.ActiveTxns(machine.NoNode))
		for _, n := range nodes {
			if err := db.RestartNode(n); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 0; i < 48; i++ {
		round(machine.NodeID(i % 4))
	}
	say("active before ckpt: %v", db.ActiveTxns(machine.NoNode))
	say("active on node 2: %v", db.ActiveTxns(2))
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	var firsts []uint64
	for _, l := range db.Logs {
		firsts = append(firsts, uint64(l.FirstLSN()))
	}
	say("first LSN after ckpt: %v", firsts)
	for i := 0; i < 12; i++ {
		round(machine.NodeID(i % 4))
	}
	recoverFrom(1, 3)
	for i := 0; i < 12; i++ {
		round(machine.NodeID(i % 3))
	}
	recoverFrom(2, 1, 2)
	say("stats: %+v", db.Stats())
	h := sha256.New()
	for _, rid := range all {
		sd, err := db.Read(0, rid)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%v %x %x|", rid, sd.Flags, sd.Data)
	}
	say("images: %x", h.Sum(nil)[:8])
	say("ifa violations: %d durability violations: %d", len(db.CheckIFA(0)), len(db.VerifyCommittedDurability(0)))

	if got := strings.Join(out, "\n"); got != perNodeTableView {
		t.Errorf("the per-node tables answer differently from the global table.\ngot:\n%s\nwant:\n%s", got, perNodeTableView)
	}
}
