package harness

import (
	"strings"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/workload"
)

// TestFigure1SystemModel checks the executable content of the paper's
// figure 1: every node has its own cache and log, all nodes share coherent
// memory, and all nodes reach all disks (any node can fetch any page).
func TestFigure1SystemModel(t *testing.T) {
	db, err := seededDB(recovery.VolatileSelectiveRedo, 4, 4, defaultPages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Logs) != 4 {
		t.Errorf("logs per node = %d, want 4", len(db.Logs))
	}
	for n := machine.NodeID(0); n < 4; n++ {
		if db.Logs[n].Node() != n {
			t.Errorf("log %d owned by node %d", n, db.Logs[n].Node())
		}
		// Any node can fetch any page from the shared disks.
		if err := db.BM.Fetch(n, 3); err != nil {
			t.Errorf("node %d cannot reach the shared disk: %v", n, err)
		}
	}
	// Coherent shared memory: a write by one node is read by another.
	rid := ridAt(0, db.Store.Layout.SlotsPerPage())
	line, _, err := db.Store.LineOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, 0, line); err != nil {
		t.Fatal(err)
	}
	werr := db.Store.WriteSlotIn(&sec, rid, heapSlot(77), new(heap.SlotBuf))
	if err := sec.Leave(); err != nil || werr != nil {
		t.Fatal(werr, err)
	}
	sd, err := db.Store.ReadSlot(3, rid, new(heap.SlotBuf))
	if err != nil || sd.Data[0] != 77 {
		t.Errorf("coherency: got %+v, %v", sd, err)
	}
}

// TestFigure2MigrationScenario is the named entry point for the paper's
// figure 2 (the detailed protocol checks live in the recovery package's
// TestFigure2* tests): uncommitted data migrates and both crash cases
// preserve IFA.
func TestFigure2MigrationScenario(t *testing.T) {
	for _, proto := range IFAProtocols() {
		db, err := seededDB(proto, 2, 4, defaultPages, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := workload.NewRunner(db, workload.Spec{
			TxnsPerNode: 1, OpsPerTxn: 6, ReadFraction: 0, SharingFraction: 1.0, Seed: 2,
		})
		if _, err := r.RunUntilMidFlight(4); err != nil {
			t.Fatal(err)
		}
		db.Crash(0)
		if _, err := db.Recover([]machine.NodeID{0}); err != nil {
			t.Fatal(err)
		}
		if v := db.CheckIFA(1); len(v) != 0 {
			t.Errorf("%v: %v", proto, v)
		}
	}
}

func heapSlot(b byte) heap.SlotData {
	return heap.SlotData{Flags: heap.FlagOccupied, Data: []byte{b}, Tag: machine.NoNode}
}

func TestTable1Shapes(t *testing.T) {
	res, err := RunTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Rows[0]
	if base.Protocol != recovery.BaselineFA {
		t.Fatal("baseline not first")
	}
	// Baseline pays none of the IFA overheads.
	if base.NTAForces != 0 || base.ReadLockLogs != 0 || base.TagWrites != 0 || base.LBMForces != 0 {
		t.Errorf("baseline shows IFA overheads: %+v", base)
	}
	for _, row := range res.Rows[1:] {
		if row.NTAForces == 0 {
			t.Errorf("%v: no early-committed structural changes", row.Protocol)
		}
		if row.ReadLockLogs == 0 {
			t.Errorf("%v: read locks not logged", row.Protocol)
		}
		undoTag := row.Protocol == recovery.VolatileSelectiveRedo
		if (row.TagWrites > 0) != undoTag {
			t.Errorf("%v: tag writes = %d, tagging = %v", row.Protocol, row.TagWrites, undoTag)
		}
		if row.Protocol.StableLBM() && row.LBMForces == 0 {
			t.Errorf("%v: no LBM forces", row.Protocol)
		}
		if !row.Protocol.StableLBM() && row.LBMForces != 0 {
			t.Errorf("%v: unexpected LBM forces %d", row.Protocol, row.LBMForces)
		}
	}
	if !strings.Contains(res.Table(), "protocol") {
		t.Error("table missing header")
	}
}

func TestLineLockBands(t *testing.T) {
	res, err := RunLineLock(nil, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low := res.Points[0]
	if low.Contenders != 1 || low.MeanNS >= 10_000 {
		t.Errorf("low contention mean = %v, want < 10us", us(low.MeanNS))
	}
	high := res.Points[len(res.Points)-1]
	if high.Contenders != 32 || high.MeanNS >= 40_000 {
		t.Errorf("32-way contention mean = %v, want < 40us", us(high.MeanNS))
	}
	// Monotone growth with contention.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MeanNS < res.Points[i-1].MeanNS {
			t.Errorf("latency not monotone: %v then %v", res.Points[i-1], res.Points[i])
		}
	}
}

func TestAbortsShapes(t *testing.T) {
	res, err := RunAborts(4, []int{4}, []float64{0.8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		switch {
		case p.Protocol == recovery.BaselineFA:
			if p.Aborted != p.ActiveAtCrash {
				t.Errorf("baseline aborted %d of %d", p.Aborted, p.ActiveAtCrash)
			}
			if p.Unnecessary == 0 {
				t.Errorf("baseline shows no unnecessary aborts with sharing 0.8")
			}
		default:
			if p.Unnecessary != 0 {
				t.Errorf("%v: %d unnecessary aborts", p.Protocol, p.Unnecessary)
			}
			if p.Violations != 0 {
				t.Errorf("%v: %d IFA violations", p.Protocol, p.Violations)
			}
		}
	}
}

func TestRuntimeShapes(t *testing.T) {
	res, err := RunRuntime(4, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto recovery.Protocol, nvram bool) RuntimePoint {
		for _, p := range res.Points {
			if p.Protocol == proto && p.NVRAM == nvram {
				return p
			}
		}
		t.Fatalf("missing %v nvram=%v", proto, nvram)
		return RuntimePoint{}
	}
	base := get(recovery.BaselineFA, false)
	volSel := get(recovery.VolatileSelectiveRedo, false)
	eager := get(recovery.StableEager, false)
	eagerNVRAM := get(recovery.StableEager, true)
	// Volatile LBM is nearly free: within 2x of baseline.
	if volSel.SimTimePerOp > 2*base.SimTimePerOp {
		t.Errorf("volatile LBM slowdown: %v vs baseline %v", us(volSel.SimTimePerOp), us(base.SimTimePerOp))
	}
	// Stable LBM on disk is dramatically slower (the paper's point).
	if eager.SimTimePerOp < 5*volSel.SimTimePerOp {
		t.Errorf("stable-eager %v not >> volatile %v", us(eager.SimTimePerOp), us(volSel.SimTimePerOp))
	}
	// NVRAM rescues stable LBM.
	if eagerNVRAM.SimTimePerOp > eager.SimTimePerOp/5 {
		t.Errorf("NVRAM did not help: %v vs disk %v", us(eagerNVRAM.SimTimePerOp), us(eager.SimTimePerOp))
	}
}

func TestRestartShapes(t *testing.T) {
	res, err := RunRestart([]int{64, 256}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[recovery.Protocol][]RestartPoint{}
	for _, p := range res.Points {
		byProto[p.Protocol] = append(byProto[p.Protocol], p)
	}
	for proto, pts := range byProto {
		if pts[1].RedoApplied+pts[1].RedoSkipped <= pts[0].RedoApplied+pts[0].RedoSkipped {
			t.Errorf("%v: redo work did not grow with backlog", proto)
		}
	}
	// Redo All applies more redo than Selective Redo at equal backlog.
	ra := byProto[recovery.VolatileRedoAll]
	sr := byProto[recovery.VolatileSelectiveRedo]
	for i := range ra {
		if ra[i].RedoApplied <= sr[i].RedoApplied {
			t.Errorf("backlog %d: redo-all applied %d, selective %d; want redo-all greater",
				ra[i].Backlog, ra[i].RedoApplied, sr[i].RedoApplied)
		}
	}
}

func TestForcesShapes(t *testing.T) {
	res, err := RunForces([]float64{0.0, 1.0}, 6)
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto recovery.Protocol, sh float64) ForcesPoint {
		for _, p := range res.Points {
			if p.Protocol == proto && p.SharingFraction == sh {
				return p
			}
		}
		t.Fatalf("missing %v %v", proto, sh)
		return ForcesPoint{}
	}
	// Eager forces roughly one per update, independent of sharing.
	eagerLo := get(recovery.StableEager, 0.0)
	if eagerLo.LBMForces < eagerLo.Updates/2 {
		t.Errorf("eager forces %d for %d updates", eagerLo.LBMForces, eagerLo.Updates)
	}
	// Triggered forces grow with sharing and stay far below eager.
	trigLo := get(recovery.StableTriggered, 0.0)
	trigHi := get(recovery.StableTriggered, 1.0)
	if trigHi.LBMForces <= trigLo.LBMForces {
		t.Errorf("triggered forces did not grow with sharing: %d -> %d", trigLo.LBMForces, trigHi.LBMForces)
	}
	eagerHi := get(recovery.StableEager, 1.0)
	if trigHi.LBMForces >= eagerHi.LBMForces {
		t.Errorf("triggered (%d) not below eager (%d)", trigHi.LBMForces, eagerHi.LBMForces)
	}
	// Volatile LBM: no LBM forces at all.
	vol := get(recovery.VolatileSelectiveRedo, 1.0)
	if vol.LBMForces != 0 {
		t.Errorf("volatile LBM forced %d times", vol.LBMForces)
	}
}

func TestBroadcastShapes(t *testing.T) {
	res, err := RunBroadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	var wi, wb BroadcastPoint
	for _, p := range res.Points {
		if p.Coherency == machine.WriteBroadcast {
			wb = p
		} else {
			wi = p
		}
	}
	// Write-broadcast eliminates data migration; the handful left comes
	// from line-lock (ME-state) acquisitions, which are exclusive by
	// definition under either coherency protocol.
	if wi.Migrations == 0 {
		t.Fatal("write-invalidate migrated nothing under heavy sharing")
	}
	if wb.Migrations*5 > wi.Migrations {
		t.Errorf("write-broadcast migrations %d not far below write-invalidate %d", wb.Migrations, wi.Migrations)
	}
	// Under write-broadcast, surviving nodes' updates are replicated, so
	// restart needs no redo (the section 7 claim); undo is still needed.
	if wb.RedoApplied != 0 {
		t.Errorf("write-broadcast needed %d redos", wb.RedoApplied)
	}
	for _, p := range res.Points {
		if p.Unnecessary != 0 || p.Violations != 0 {
			t.Errorf("%v: unnecessary=%d violations=%d", p.Coherency, p.Unnecessary, p.Violations)
		}
	}
}

func TestLocksShapes(t *testing.T) {
	res, err := RunLocks([]int{8}, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sm, sd LocksPoint
	for _, p := range res.Points {
		switch p.Manager {
		case "sm-locking (ifa: read locks logged)":
			sm = p
		case "sd message-passing (replicated)":
			sd = p
		}
	}
	// The elimination of IPC: SM locking is at least an order of
	// magnitude cheaper than message passing.
	if sm.MeanAcquireNS*10 > sd.MeanAcquireNS {
		t.Errorf("sm acquire %v not << sd %v", us(sm.MeanAcquireNS), us(sd.MeanAcquireNS))
	}
	if sm.Messages != 0 {
		t.Errorf("sm locking exchanged %d messages", sm.Messages)
	}
	if sd.Messages == 0 {
		t.Error("sd locking exchanged no messages")
	}
	if sm.LockLogRecords == 0 {
		t.Error("IFA SM locking logged nothing")
	}
}

func TestBTreeRecoveryShapes(t *testing.T) {
	for _, proto := range IFAProtocols() {
		res, err := RunBTreeRecovery(proto, 60, 9)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.TreeViolations != 0 || res.IFAViolations != 0 {
			t.Errorf("%v: violations: tree=%d ifa=%d", proto, res.TreeViolations, res.IFAViolations)
		}
		if res.SplitsForced == 0 {
			t.Errorf("%v: no early-committed splits", proto)
		}
		// Committed keys plus the three surviving in-flight inserts.
		if res.SurvivingKeys != res.CommittedKeys+3 {
			t.Errorf("%v: surviving keys = %d, want %d", proto, res.SurvivingKeys, res.CommittedKeys+3)
		}
	}
}

func TestLockRecoveryShapes(t *testing.T) {
	for _, chained := range []bool{false, true} {
		res, err := RunLockRecovery(recovery.VolatileSelectiveRedo, 8, 10, chained, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.LCBsLost == 0 {
			t.Errorf("chained=%v: crash destroyed no LCBs (scenario failed to concentrate them)", chained)
		}
		if res.Reinstalled < res.LCBsLost {
			t.Errorf("chained=%v: reinstalled %d < lost %d", chained, res.Reinstalled, res.LCBsLost)
		}
		if res.Replayed == 0 {
			t.Errorf("chained=%v: no surviving locks replayed", chained)
		}
		if res.Violations != 0 {
			t.Errorf("chained=%v: %d IFA violations", chained, res.Violations)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	res, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		switch p.Protocol {
		case recovery.VolatileSelectiveRedo:
			if p.Violations != 0 {
				t.Errorf("real protocol case %d: %d violations", p.CrashCase, p.Violations)
			}
		case recovery.AblatedNoLBM:
			if p.Violations == 0 {
				t.Errorf("no-LBM case %d: hazard not observed", p.CrashCase)
			}
		}
	}
}

func TestParallelShapes(t *testing.T) {
	res, err := RunParallel(recovery.VolatileSelectiveRedo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedBranches != res.Participants {
		t.Errorf("aborted %d of %d branches", res.AbortedBranches, res.Participants)
	}
	if !res.IndependentSurvived {
		t.Error("independent transaction was aborted")
	}
	if res.Violations != 0 {
		t.Errorf("%d IFA violations", res.Violations)
	}
}

func TestScalingShapes(t *testing.T) {
	res, err := RunScaling([]int{4, 16}, 12)
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto recovery.Protocol, nodes int) ScalingPoint {
		for _, p := range res.Points {
			if p.Protocol == proto && p.Nodes == nodes {
				return p
			}
		}
		t.Fatalf("missing %v %d", proto, nodes)
		return ScalingPoint{}
	}
	// Baseline loses everything at every size; IFA loses one node's worth.
	for _, n := range []int{4, 16} {
		base := get(recovery.BaselineFA, n)
		ifa := get(recovery.VolatileSelectiveRedo, n)
		if base.Aborted != base.ActiveAtCrash {
			t.Errorf("baseline@%d aborted %d of %d", n, base.Aborted, base.ActiveAtCrash)
		}
		if ifa.Aborted != 1 {
			t.Errorf("ifa@%d aborted %d, want 1", n, ifa.Aborted)
		}
	}
	// The yearly-loss gap widens superlinearly with machine size.
	gap4 := get(recovery.BaselineFA, 4).LostWritesPerYear - get(recovery.VolatileSelectiveRedo, 4).LostWritesPerYear
	gap16 := get(recovery.BaselineFA, 16).LostWritesPerYear - get(recovery.VolatileSelectiveRedo, 16).LostWritesPerYear
	if gap16 < 4*gap4 {
		t.Errorf("availability gap did not scale: %0.f at 4 nodes, %0.f at 16", gap4, gap16)
	}
}

func TestHotspotShapes(t *testing.T) {
	res, err := RunHotspot([]float64{0.0, 0.9}, 13)
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto recovery.Protocol, hp float64) HotspotPoint {
		for _, p := range res.Points {
			if p.Protocol == proto && p.HotProb == hp {
				return p
			}
		}
		t.Fatalf("missing %v %v", proto, hp)
		return HotspotPoint{}
	}
	// Under strict 2PL, skew serializes the hot records, so migration
	// pressure per update *drops* as the hot set concentrates.
	trigCold := get(recovery.StableTriggered, 0.0)
	trigHot := get(recovery.StableTriggered, 0.9)
	if trigHot.MigrationsPerUpdate >= trigCold.MigrationsPerUpdate {
		t.Errorf("skew did not reduce migrations/update: %.2f -> %.2f",
			trigCold.MigrationsPerUpdate, trigHot.MigrationsPerUpdate)
	}
	// The contention reappears in the lock manager.
	volCold := get(recovery.VolatileSelectiveRedo, 0.0)
	volHot := get(recovery.VolatileSelectiveRedo, 0.9)
	if volHot.Deadlocks+trigHot.Deadlocks <= volCold.Deadlocks+trigCold.Deadlocks {
		t.Errorf("skew did not raise lock contention: deadlocks %d -> %d",
			volCold.Deadlocks+trigCold.Deadlocks, volHot.Deadlocks+trigHot.Deadlocks)
	}
	// Volatile LBM forces stay below triggered at every skew level.
	if volHot.ForcesPerKUpdate >= trigHot.ForcesPerKUpdate {
		t.Errorf("volatile (%.1f) not below triggered (%.1f) under skew",
			volHot.ForcesPerKUpdate, trigHot.ForcesPerKUpdate)
	}
}

func TestOSStructShapes(t *testing.T) {
	res, err := RunOSStruct()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("%d integrity violations: %+v", res.Violations, res)
	}
	if res.SemsRebuilt == 0 && res.UnitsReleased == 0 {
		t.Error("crash touched no semaphore state (scenario too weak)")
	}
	if res.MapLinesRebuilt == 0 && res.BlocksReclaimed == 0 {
		t.Error("crash touched no disk-map state (scenario too weak)")
	}
	// The victim's blocks vanish either by explicit reclamation (surviving
	// line) or implicitly via a rebuild that excludes them; the Violations
	// check above already proved they are gone.
	if res.MapLinesRebuilt == 0 && res.BlocksReclaimed < res.VictimBlocks {
		t.Errorf("reclaimed %d of the victim's %d blocks with no rebuild", res.BlocksReclaimed, res.VictimBlocks)
	}
}

func TestDepCensusShapes(t *testing.T) {
	res, err := RunDepCensus(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	byProto := map[recovery.Protocol]DepCensusPoint{}
	for _, p := range res.Points {
		byProto[p.Protocol] = p
		// The schedule forms cross-node dependencies under every discipline
		// — LBM changes their *coverage*, not their existence.
		if p.Census.Edges == 0 || p.Census.TxnsWithDeps == 0 {
			t.Errorf("%v: no dependencies formed: %+v", p.Protocol, p.Census)
		}
		// The crash yields a verdict for the victim and each survivor.
		if p.Verdicts == 0 || p.Aborted == 0 {
			t.Errorf("%v: verdicts=%d aborted=%d", p.Protocol, p.Verdicts, p.Aborted)
		}
	}
	for _, proto := range []recovery.Protocol{recovery.StableEager, recovery.VolatileSelectiveRedo} {
		p := byProto[proto]
		if p.Census.UnloggedEdges != 0 || p.Census.TxnsWithUnlogged != 0 {
			t.Errorf("%v exposed unlogged edges: %+v", proto, p.Census)
		}
		if p.Doomed != 0 {
			t.Errorf("%v doomed a survivor: %+v", proto, p)
		}
	}
	abl := byProto[recovery.AblatedNoLBM]
	if abl.Census.UnloggedEdges == 0 || abl.Census.TxnsWithUnlogged == 0 {
		t.Errorf("ablated control exposed no unlogged edges: %+v", abl.Census)
	}
	if abl.Doomed == 0 {
		t.Error("ablated control doomed no survivor — the census cannot show the hazard")
	}
	table := res.Table()
	for _, want := range []string{"unlogged", "doomed", "ablated/no-lbm"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
