package recovery_test

import (
	"fmt"
	"strings"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
)

// TestOneWorkerIsTheSequentialPipeline: restart recovery is one sequential
// pipeline, and Config.RecoveryWorkers is inert. At RecoveryWorkers 0, 1 and
// 4 a recovery must perform the same simulated machine operations, report
// the same counters — TagScanLines included — and leave the same images; the
// figures are pinned, so a change that means to move what recovery costs the
// simulated machine re-records them.
//
// The Selective Redo scenario puts a stale tag on a line two survivors share.
// Scanned one survivor at a time, the first clears the tag (taking the line
// exclusively) and the second never sees the line, so TagScanLines counts it
// once; a tag scan that let the survivors scan side by side would count it
// once per holder.
func TestOneWorkerIsTheSequentialPipeline(t *testing.T) {
	lost := heap.RID{Page: 2, Slot: 0}      // committed on the victim, cached nowhere else
	migrated := heap.RID{Page: 0, Slot: 0}  // the victim's open update, carried off by a survivor
	neighbour := heap.RID{Page: 0, Slot: 1} // shares migrated's cache line
	stale := heap.RID{Page: 1, Slot: 0}     // carries a tag naming a survivor that never wrote it
	type outcome struct {
		rep    *recovery.RecoveryReport
		ops    machine.Stats
		images string
	}
	run := func(t *testing.T, proto recovery.Protocol, workers int) outcome {
		db, mgr := newDB(t, proto, 4)
		db.Cfg.RecoveryWorkers = workers
		seed(t, mgr, []heap.RID{lost, migrated, neighbour, stale}, 1)

		done, err := mgr.Begin(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := done.Write(lost, []byte{55}); err != nil {
			t.Fatal(err)
		}
		if err := done.Commit(); err != nil {
			t.Fatal(err)
		}
		dead, err := mgr.Begin(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := dead.Write(migrated, []byte{77}); err != nil {
			t.Fatal(err)
		}
		live, err := mgr.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.Write(neighbour, []byte{88}); err != nil {
			t.Fatal(err)
		}
		if proto.UndoTagging() {
			plantTag(t, db, 0, stale, 1)
			if _, err := db.Read(2, stale); err != nil { // nodes 0 and 2 now share the line
				t.Fatal(err)
			}
		}

		db.Crash(3)
		before := db.M.Stats()
		rep, err := db.Recover([]machine.NodeID{3})
		if err != nil {
			t.Fatal(err)
		}
		ops := db.M.Stats().Sub(before)
		mustCheckIFA(t, db, 0)
		var img strings.Builder
		for _, rid := range []heap.RID{lost, migrated, neighbour, stale} {
			sd, err := db.Read(0, rid)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&img, "%v tag=%d data=%x\n", rid, sd.Tag, sd.Data)
		}
		return outcome{rep, ops, img.String()}
	}
	// counters is every report figure the sequential pipeline determines.
	counters := func(r *recovery.RecoveryReport) string {
		return fmt.Sprintf("redo=%d/%d undo=%d taglines=%d locks=%d lcb=%d released=%d aborted=%v sim=%d",
			r.RedoApplied, r.RedoSkipped, r.UndoApplied, r.TagScanLines, r.LocksReplayed,
			r.LCBsReinstalled, r.LockEntriesReleased, r.Aborted, r.SimTime)
	}
	for _, tc := range []struct {
		proto    recovery.Protocol
		counters string
		ops      machine.Stats
	}{
		{
			proto:    recovery.VolatileRedoAll,
			counters: "redo=2/0 undo=0 taglines=0 locks=1 lcb=2 released=0 aborted=[t3.2] sim=18030450",
			ops: machine.Stats{Reads: 196, Writes: 2, LocalHits: 197, RemoteFetches: 1, Migrations: 1, Downgrades: 1,
				Replications: 1, Invalidations: 1, Installs: 10, Discards: 10, LineLockAcquires: 69},
		},
		{
			proto:    recovery.VolatileSelectiveRedo,
			counters: "redo=1/1 undo=1 taglines=9 locks=1 lcb=2 released=0 aborted=[t3.2] sim=18031400",
			ops: machine.Stats{Reads: 232, Writes: 4, LocalHits: 235, RemoteFetches: 1, Migrations: 1, Downgrades: 1,
				Replications: 1, Invalidations: 2, Installs: 4, LineLockAcquires: 71},
		},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			seq := run(t, tc.proto, 0)
			for _, workers := range []int{0, 1, 4} {
				got := seq
				if workers > 0 {
					got = run(t, tc.proto, workers)
				}
				if c := counters(got.rep); c != tc.counters {
					t.Errorf("workers=%d counters = %s\n\twant the sequential pipeline's %s", workers, c, tc.counters)
				}
				if got.ops != tc.ops {
					t.Errorf("workers=%d machine operations = %+v\n\twant the sequential pipeline's %+v", workers, got.ops, tc.ops)
				}
				if got.images != seq.images {
					t.Errorf("workers=%d images diverge from workers=0:\n%s---\n%s", workers, got.images, seq.images)
				}
			}
		})
	}
}
