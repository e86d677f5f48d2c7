package recovery_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/workload"
)

// The worker-count equivalence gate: restart recovery must produce identical
// post-recovery database images, abort sets, and Redo/Undo/lock counters at
// every worker count. Versions, TagScanLines, SimTime, and the phase spans
// are deliberately excluded — they depend on allocation order and
// interleaving, which fanning out legitimately changes (see parrestart.go and
// undoTagScan's two schedules).

// eqProtocols covers every real protocol (the AblatedNoLBM negative control
// deliberately breaks recovery and is excluded everywhere).
var eqProtocols = []recovery.Protocol{
	recovery.BaselineFA,
	recovery.VolatileRedoAll,
	recovery.VolatileSelectiveRedo,
	recovery.StableEager,
	recovery.StableTriggered,
}

const (
	eqNodes = 6
	eqPages = 12
	// The last eqTailPages pages are reserved for hand-opened active
	// transactions, so their locks never conflict with the committed
	// backlog the Runner generates on the head pages.
	eqTailPages = 2
)

// runEqScenario drives one seeded two-wave crash schedule against a fresh DB
// and returns a fingerprint of everything the gate compares. Two waves, with
// the first wave's victims restarted in between, exercise the
// restarted-node redo filter (a revived log carrying updates of transactions
// an earlier recovery settled as dead) on top of the single-crash paths.
func runEqScenario(t *testing.T, proto recovery.Protocol, seed int64, workers int, opts ...func(*recovery.Config)) string {
	t.Helper()
	cfg := recovery.Config{
		Machine:         machine.Config{Nodes: eqNodes, Lines: 4096},
		Protocol:        proto,
		LinesPerPage:    4,
		RecsPerLine:     4,
		Pages:           eqPages,
		LockTableLines:  128,
		RecoveryWorkers: workers,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	db, err := recovery.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(db)
	if err := workload.Seed(db, 0); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var fp strings.Builder
	for wave := 0; wave < 2; wave++ {
		// Committed backlog with heavy inter-node sharing on the head pages.
		r := workload.NewRunner(db, workload.Spec{
			TxnsPerNode: 5, OpsPerTxn: 6,
			ReadFraction: 0.3, SharingFraction: 0.7,
			HeapPages: eqPages - eqTailPages,
			Seed:      seed*101 + int64(wave),
		})
		if _, err := r.Run(); err != nil {
			t.Fatalf("wave %d workload: %v", wave, err)
		}
		// One open transaction per node on this wave's tail page: the ones
		// on crashing nodes exercise undo (and tag-scan undo under Selective
		// Redo), the surviving ones lock replay and tag legitimacy. Slots
		// straddle cache lines (RecsPerLine=4, 6 nodes), so the tagged lines
		// migrate between nodes.
		tailPage := storage.PageID(eqPages - 1 - wave)
		for n := 0; n < eqNodes; n++ {
			tx, err := mgr.Begin(machine.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			rid := heap.RID{Page: tailPage, Slot: uint16(n)}
			if err := tx.Write(rid, []byte{byte(0xA0 + wave), byte(n)}); err != nil {
				t.Fatalf("wave %d active write node %d: %v", wave, n, err)
			}
			// Deliberately left open across the crash.
		}
		// Seeded victims: 1-2 nodes, at least two survivors.
		nVictims := 1 + rng.Intn(2)
		perm := rng.Perm(eqNodes)
		victims := make([]machine.NodeID, 0, nVictims)
		for _, p := range perm[:nVictims] {
			victims = append(victims, machine.NodeID(p))
		}
		db.Crash(victims...)
		rep, err := db.Recover(victims)
		if err != nil {
			t.Fatalf("wave %d recover (workers=%d): %v", wave, workers, err)
		}
		fmt.Fprintf(&fp, "wave%d crashed=%v aborted=%v redo=%d/%d undo=%d locks=%d lcb=%d released=%d chains=%d\n",
			wave, rep.Crashed, rep.Aborted, rep.RedoApplied, rep.RedoSkipped,
			rep.UndoApplied, rep.LocksReplayed, rep.LCBsReinstalled,
			rep.LockEntriesReleased, rep.LCBChainsDropped)
		for _, v := range victims {
			if !db.M.Alive(v) { // the baseline reboot restarts everyone itself
				if err := db.RestartNode(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The full logical database image, read from node 0 (all nodes are back
	// up). Flags, undo tag, and data are compared; versions are not.
	for p := 0; p < eqPages; p++ {
		for s := 0; s < db.Store.Layout.RecsPerLine*(db.Cfg.LinesPerPage-1); s++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(s)}
			sd, err := db.Read(0, rid)
			if err != nil {
				t.Fatalf("final read %v: %v", rid, err)
			}
			fmt.Fprintf(&fp, "%v flags=%d tag=%d data=%x\n", rid, sd.Flags, sd.Tag, sd.Data)
		}
	}
	return fp.String()
}

// TestParallelRecoveryEquivalence is the acceptance gate: for every protocol
// and 8 seeded crash schedules, the fanned-out run (4 workers) must be
// outcome-identical to the inline one.
func TestParallelRecoveryEquivalence(t *testing.T) {
	for _, proto := range eqProtocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 8; seed++ {
				seq := runEqScenario(t, proto, seed, 0)
				par := runEqScenario(t, proto, seed, 4)
				if seq != par {
					t.Errorf("seed %d: sequential and parallel recovery diverge\n--- sequential ---\n%s--- parallel(4) ---\n%s",
						seed, seq, par)
				}
			}
		})
	}
}

// TestParallelRecoveryEquivalenceVariants re-runs the gate under engine
// configurations that change what restart recovery has to do. Each variant
// compares sequential against parallel under the *same* config: chained LCBs
// make the lock-space phases rebuild whole multi-line LCBs, so cross-config
// fingerprints are not comparable, but seq/par within a config must still be
// bit-identical.
func TestParallelRecoveryEquivalenceVariants(t *testing.T) {
	variants := []struct {
		name string
		opt  func(*recovery.Config)
	}{
		{"chained", func(c *recovery.Config) { c.ChainedLCBs = true }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				seq := runEqScenario(t, recovery.VolatileSelectiveRedo, seed, 0, v.opt)
				par := runEqScenario(t, recovery.VolatileSelectiveRedo, seed, 4, v.opt)
				if seq != par {
					t.Errorf("seed %d: sequential and parallel recovery diverge under %s\n--- sequential ---\n%s--- parallel(4) ---\n%s",
						seed, v.name, seq, par)
				}
			}
		})
	}
}

// TestParallelRecoveryWorkerSweep pins the knob itself: worker counts beyond
// the fan-out width and a degenerate single-survivor config must still be
// outcome-identical, and the report must record the fan-out actually used.
func TestParallelRecoveryWorkerSweep(t *testing.T) {
	base := runEqScenario(t, recovery.VolatileSelectiveRedo, 3, 0)
	for _, w := range []int{2, 8, 64} {
		if got := runEqScenario(t, recovery.VolatileSelectiveRedo, 3, w); got != base {
			t.Errorf("workers=%d diverges from sequential:\n--- sequential ---\n%s--- workers=%d ---\n%s",
				w, base, w, got)
		}
	}
}

// TestParallelReportFields checks the parallel-run bookkeeping: Workers and
// the per-phase fan-out spans appear on a parallel run and stay empty on a
// sequential one.
func TestParallelReportFields(t *testing.T) {
	for _, workers := range []int{0, 4} {
		db, err := recovery.New(recovery.Config{
			Machine:         machine.Config{Nodes: 4, Lines: 2048},
			Protocol:        recovery.VolatileSelectiveRedo,
			LinesPerPage:    4,
			RecsPerLine:     4,
			Pages:           8,
			LockTableLines:  64,
			RecoveryWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Seed(db, 0); err != nil {
			t.Fatal(err)
		}
		r := workload.NewRunner(db, workload.Spec{TxnsPerNode: 4, OpsPerTxn: 4, SharingFraction: 0.8, Seed: 9})
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		victim := machine.NodeID(3)
		db.Crash(victim)
		rep, err := db.Recover([]machine.NodeID{victim})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Workers != workers {
			t.Errorf("workers=%d: rep.Workers = %d", workers, rep.Workers)
		}
		if workers == 0 && len(rep.ParPhases) != 0 {
			t.Errorf("sequential run recorded parallel spans: %+v", rep.ParPhases)
		}
		if workers > 1 {
			if len(rep.ParPhases) == 0 {
				t.Errorf("parallel run recorded no fan-out spans")
			}
			for _, pp := range rep.ParPhases {
				if pp.Fanout < 2 || pp.Fanout > workers {
					t.Errorf("fan-out span %v outside [2,%d]", pp, workers)
				}
			}
		}
	}
}

// TestOneWorkerIsTheSequentialPipeline: there is one pipeline, and up to one
// worker it is the sequential one, operation for operation. RecoveryWorkers 0
// and 1 must agree on every simulated machine operation and every report
// counter — TagScanLines included — and record no fan-out; the figures are
// pinned as well, so a change that means to move what an inline recovery
// costs the simulated machine re-records them. Three workers must reach the
// same images, abort set and redo/undo counts through real fan-outs.
//
// The Selective Redo scenario is built so the two tag-scan schedules
// disagree on TagScanLines, the one counter they may: a stale tag sits on a
// line two survivors share. Scanned one survivor at a time, the first clears
// the tag (taking the line exclusively) and the second never sees the line;
// scanned side by side, both count it. A one-worker run that took the
// fanned-out schedule would show up as the larger count.
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
			counters: "redo=2/0 undo=0 taglines=0 locks=1 lcb=1 released=0 aborted=[t3.2] sim=18031500",
			ops: machine.Stats{Reads: 198, Writes: 2, LocalHits: 197, RemoteFetches: 3, Downgrades: 2,
				Replications: 3, Invalidations: 4, Installs: 9, Discards: 10, LineLockAcquires: 67},
		},
		{
			proto:    recovery.VolatileSelectiveRedo,
			counters: "redo=1/1 undo=1 taglines=9 locks=1 lcb=1 released=0 aborted=[t3.2] sim=18033450",
			ops: machine.Stats{Reads: 234, Writes: 4, LocalHits: 235, RemoteFetches: 3, Downgrades: 2,
				Replications: 3, Invalidations: 5, Installs: 3, LineLockAcquires: 70},
		},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			seq, one, three := run(t, tc.proto, 0), run(t, tc.proto, 1), run(t, tc.proto, 3)
			if got := counters(seq.rep); got != tc.counters {
				t.Errorf("workers=0 counters = %s\n\twant the sequential pipeline's %s", got, tc.counters)
			}
			if seq.ops != tc.ops {
				t.Errorf("workers=0 machine operations = %+v\n\twant the sequential pipeline's %+v", seq.ops, tc.ops)
			}
			if counters(one.rep) != counters(seq.rep) || one.ops != seq.ops || one.images != seq.images {
				t.Errorf("workers 0 and 1 diverge:\n%s\n%+v\n%s---\n%s\n%+v\n%s",
					counters(seq.rep), seq.ops, seq.images, counters(one.rep), one.ops, one.images)
			}
			if len(seq.rep.ParPhases) != 0 || len(one.rep.ParPhases) != 0 {
				t.Errorf("an inline run recorded fan-outs: %+v / %+v", seq.rep.ParPhases, one.rep.ParPhases)
			}
			if len(three.rep.ParPhases) == 0 {
				t.Error("workers=3 recorded no fan-out")
			}
			if three.images != seq.images || fmt.Sprint(three.rep.Aborted) != fmt.Sprint(seq.rep.Aborted) ||
				three.rep.RedoApplied != seq.rep.RedoApplied || three.rep.RedoSkipped != seq.rep.RedoSkipped ||
				three.rep.UndoApplied != seq.rep.UndoApplied {
				t.Errorf("workers=3 diverges:\n%s\n%s---\n%s\n%s",
					counters(seq.rep), seq.images, counters(three.rep), three.images)
			}
			if tc.proto.UndoTagging() && three.rep.TagScanLines <= seq.rep.TagScanLines {
				t.Errorf("TagScanLines: %d at three workers, %d inline; the shared stale-tag line should be counted once per holder only when fanned out",
					three.rep.TagScanLines, seq.rep.TagScanLines)
			}
		})
	}
}
