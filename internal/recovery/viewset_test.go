package recovery_test

import (
	"fmt"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// deviceReads returns every node's log-device read count.
func deviceReads(db *recovery.DB) []int64 {
	out := make([]int64, len(db.Logs))
	for i, l := range db.Logs {
		out[i] = l.Device().Reads()
	}
	return out
}

func readsSince(db *recovery.DB, base []int64) []int64 {
	out := deviceReads(db)
	for i := range out {
		out[i] -= base[i]
	}
	return out
}

// TestRecoveryReadsEachStableLogOnce: one recovery attempt reads a down
// node's log device exactly once — every phase works from the attempt's view
// set — never reads a survivor's, and RestartNode reads the restarted node's
// once more (the torn-tail check). The scenario makes every phase that used to
// re-read the device do real work: the crashed node has a stolen update to
// undo from its stable log, and, under Selective Redo, one that migrated to a
// survivor and is found by the tag scan.
//
// The baseline case also pins what a whole-machine reboot replays and what it
// costs the simulated machine: the reboot redoes the redo scan's down-node
// candidates through the two-pass apply every IFA protocol uses (a line is
// read in one section and, if a candidate on it applies, written in one
// more), so a change to that scan's filter or to the apply that moves the
// baseline shows here and not only in the E5 table.
//
// Config.RecoveryWorkers is inert; the scenario runs at 0 and 3 workers so a
// worker count that came to select a different read pattern would show here.
func TestRecoveryReadsEachStableLogOnce(t *testing.T) {
	stolen := heap.RID{Page: 1, Slot: 0}
	migrated := heap.RID{Page: 0, Slot: 0}
	neighbour := heap.RID{Page: 0, Slot: 1} // shares migrated's cache line
	redone := heap.RID{Page: 2, Slot: 0}    // committed after the checkpoint, never flushed
	flushed := heap.RID{Page: 3, Slot: 0}   // committed after the checkpoint and flushed
	for _, proto := range []recovery.Protocol{
		recovery.VolatileRedoAll, recovery.VolatileSelectiveRedo, recovery.BaselineFA,
	} {
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("%v/workers=%d", proto, workers), func(t *testing.T) {
				db, mgr := newDB(t, proto, 4)
				db.Cfg.RecoveryWorkers = workers
				seed(t, mgr, []heap.RID{stolen, migrated, neighbour, redone, flushed}, 1)

				done, err := mgr.Begin(2)
				if err != nil {
					t.Fatal(err)
				}
				for _, rid := range []heap.RID{redone, flushed} {
					if err := done.Write(rid, []byte{44}); err != nil {
						t.Fatal(err)
					}
				}
				if err := done.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := db.BM.FlushPage(2, flushed.Page); err != nil {
					t.Fatal(err)
				}
				dead, err := mgr.Begin(3)
				if err != nil {
					t.Fatal(err)
				}
				if err := dead.Write(stolen, []byte{66}); err != nil {
					t.Fatal(err)
				}
				if err := dead.Write(migrated, []byte{77}); err != nil {
					t.Fatal(err)
				}
				// The stolen update reaches the stable database and the stable
				// log; the other one leaves in a survivor's cache.
				db.Logs[3].ForceAll()
				if err := db.BM.FlushPage(3, stolen.Page); err != nil {
					t.Fatal(err)
				}
				live, err := mgr.Begin(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := live.Write(neighbour, []byte{88}); err != nil {
					t.Fatal(err)
				}

				db.Crash(3)
				base := deviceReads(db)
				ops := db.M.Stats()
				rep, err := db.Recover([]machine.NodeID{3})
				if err != nil {
					t.Fatal(err)
				}
				ops = db.M.Stats().Sub(ops)
				if rep.Attempts != 1 || rep.UndoApplied == 0 {
					t.Fatalf("attempts = %d, undo applied = %d; the scenario needs one attempt that undoes something", rep.Attempts, rep.UndoApplied)
				}
				want := []int64{0, 0, 0, 1}
				if proto == recovery.BaselineFA {
					// The whole machine reboots: every log is reopened (one
					// read) and then recovered from its stable prefix (one).
					want = []int64{2, 2, 2, 2}
					if got := fmt.Sprintf("redo=%d/%d undo=%d", rep.RedoApplied, rep.RedoSkipped, rep.UndoApplied); got != "redo=1/1 undo=1" {
						t.Errorf("the reboot replayed %s, want redo=1/1 undo=1", got)
					}
					wantOps := machine.Stats{Reads: 68, Writes: 3, LocalHits: 71, Installs: 80,
						LineLockAcquires: 69, Crashes: 3, LinesLost: 76}
					if ops != wantOps {
						t.Errorf("the reboot's machine operations = %+v, want %+v", ops, wantOps)
					}
				}
				if got := readsSince(db, base); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("device reads during Recover = %v, want %v", got, want)
				}
				if proto != recovery.BaselineFA {
					base = deviceReads(db)
					if err := db.RestartNode(3); err != nil {
						t.Fatal(err)
					}
					if got := readsSince(db, base); fmt.Sprint(got) != "[0 0 0 1]" {
						t.Errorf("device reads during RestartNode = %v, want [0 0 0 1]", got)
					}
				}
				for _, rid := range []heap.RID{stolen, migrated} {
					if got, err := db.Read(0, rid); err != nil || got.Data[0] != 1 {
						t.Errorf("%v = %v, %v; want the seeded 1 back", rid, got.Data, err)
					}
				}
				for _, rid := range []heap.RID{redone, flushed} {
					if got, err := db.Read(0, rid); err != nil || got.Data[0] != 44 {
						t.Errorf("%v = %v, %v; want the committed 44", rid, got.Data, err)
					}
				}
				mustCheckIFA(t, db, 0)
			})
		}
	}
}

// TestViewSetIsRebuiltPerAttempt: a node that dies at a recovery phase
// boundary was a survivor when the attempt's views were built, so those views
// hold its whole log — including a tail that never reached the device. The
// next attempt must not see that tail: it reads the newly down node's device
// afresh (and the original victim's again). Each survivor has an open
// transaction whose update record and, appended behind the engine's back, a
// commit record sit unforced in its log; whichever survivor the injector
// kills must have that transaction aborted and undone, not settled as
// committed on the strength of a commit record only the stale view saw.
func TestViewSetIsRebuiltPerAttempt(t *testing.T) {
	for _, proto := range []recovery.Protocol{recovery.VolatileRedoAll, recovery.VolatileSelectiveRedo} {
		for _, killCoordinator := range []bool{false, true} {
			name := fmt.Sprintf("%v/coordinator=%v", proto, killCoordinator)
			t.Run(name, func(t *testing.T) {
				db, mgr := newDB(t, proto, 4)
				rids := make([]heap.RID, 4)
				for n := range rids {
					rids[n] = heap.RID{Page: storage.PageID(n), Slot: 0}
				}
				seed(t, mgr, rids, 1)
				open := make([]*txn.Txn, 4)
				for n := range open {
					tx, err := mgr.Begin(machine.NodeID(n))
					if err != nil {
						t.Fatal(err)
					}
					if err := tx.Write(rids[n], []byte{byte(50 + n)}); err != nil {
						t.Fatal(err)
					}
					open[n] = tx
				}
				for n := 0; n < 3; n++ {
					db.Logs[n].Append(wal.Record{Type: wal.TypeCommit, Txn: open[n].ID()})
				}
				stableBefore := make([]wal.LSN, 4)
				for n, l := range db.Logs {
					stableBefore[n] = l.ForcedLSN()
				}

				pCoord := 0.0
				if killCoordinator {
					pCoord = 1
				}
				inj := fault.New(fault.Plan{Seed: 7, PCrashInRecovery: 1, PCoordinatorCrash: pCoord, MaxCrashes: 1})
				db.AttachFaults(inj)
				defer db.AttachFaults(nil)
				inj.Arm()

				db.Crash(3)
				base := deviceReads(db)
				rep, err := db.Recover([]machine.NodeID{3})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Attempts != 2 || len(rep.Crashed) != 2 {
					t.Fatalf("attempts = %d, crashed = %v; want 2 attempts over node 3 and one more", rep.Attempts, rep.Crashed)
				}
				victim := rep.Crashed[0] // sorted; node 3 is last
				if killCoordinator && (victim != 0 || rep.CoordinatorFailovers != 1) {
					t.Fatalf("victim = %d, failovers = %d; want the coordinator (node 0) and one failover", victim, rep.CoordinatorFailovers)
				}
				if !killCoordinator && victim == 0 {
					t.Fatalf("victim = %d, want a survivor other than the coordinator", victim)
				}
				// Attempt 1 read node 3's device; attempt 2 read it again,
				// and the new victim's for the first time.
				want := make([]int64, 4)
				want[3], want[victim] = 2, 1
				if got := readsSince(db, base); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("device reads = %v, want %v (a view set per attempt)", got, want)
				}
				// The victim's tail died with it: nothing it had not forced
				// is stable, its transaction is aborted, its update undone.
				stable := 0
				db.Logs[victim].StableRecords(0, func(*wal.Record) bool { stable++; return false })
				if got := db.Logs[victim].ForcedLSN(); got != stableBefore[victim] || db.Logs[victim].Len() != stable {
					t.Errorf("node %d: forced LSN %d (was %d), %d records retained; the volatile tail must be gone", victim, got, stableBefore[victim], db.Logs[victim].Len())
				}
				aborted := map[wal.TxnID]bool{}
				for _, id := range rep.Aborted {
					aborted[id] = true
				}
				if len(aborted) != 2 || !aborted[open[3].ID()] || !aborted[open[victim].ID()] {
					t.Errorf("Aborted = %v, want exactly the open transactions of nodes %d and 3", rep.Aborted, victim)
				}
				reader := machine.NodeID(1)
				if victim == 1 {
					reader = 2
				}
				for _, n := range []machine.NodeID{victim, 3} {
					if st, _ := db.Status(open[n].ID()); st != recovery.TxnAborted {
						t.Errorf("node %d's transaction is %v, want aborted", n, st)
					}
					if got, err := db.Read(reader, rids[n]); err != nil || got.Data[0] != 1 {
						t.Errorf("%v = %v, %v; want the seeded 1 back", rids[n], got.Data, err)
					}
				}
				// The other survivors' transactions ride through.
				for n := machine.NodeID(0); n < 3; n++ {
					if n == victim {
						continue
					}
					if st, _ := db.Status(open[n].ID()); st != recovery.TxnActive {
						t.Errorf("survivor %d's transaction is %v, want active", n, st)
					}
					if got, err := db.Read(reader, rids[n]); err != nil || got.Data[0] != byte(50+int(n)) {
						t.Errorf("%v = %v, %v; want the survivor's own update", rids[n], got.Data, err)
					}
				}
				mustCheckIFA(t, db, reader)
			})
		}
	}
}
