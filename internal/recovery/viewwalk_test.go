package recovery

import (
	"runtime"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// mustUpdate runs db.Update and fails the test on error.
func mustUpdate(t *testing.T, db *DB, nd machine.NodeID, id wal.TxnID, rid heap.RID, data ...byte) {
	t.Helper()
	if err := db.Update(nd, id, rid, data); err != nil {
		t.Fatal(err)
	}
}

// mallocs returns the heap allocations made so far by the process.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestRecoveryAllocsIndependentOfLogLength: a recovery attempt walks each log
// once into lists sized from its record count, and no later phase builds
// anything per record, so what one Selective Redo recovery allocates does not
// grow with the survivors' logs. The scene runs once after a short committed
// backlog on survivor node 1 and once after a backlog four times longer on
// the same slots; in both, a live transaction of node 1 leaves a tag naming
// its own node in node 1's cache, so the tag scan verifies a surviving tag
// against node 1's log (the check that once indexed that whole log).
func TestRecoveryAllocsIndependentOfLogLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	rids := []heap.RID{{Page: 0, Slot: 0}, {Page: 1, Slot: 0}, {Page: 2, Slot: 4}, {Page: 3, Slot: 8}}
	recoverAllocs := func(backlog int) uint64 {
		db := newNodeTestDB(t, VolatileSelectiveRedo, 3)
		for i := 0; i < backlog; i++ {
			id := mustBegin(t, db, 1)
			mustUpdate(t, db, 1, id, rids[i%len(rids)], byte(i))
			if err := db.Commit(1, id); err != nil {
				t.Fatal(err)
			}
		}
		live := mustBegin(t, db, 1)
		mustUpdate(t, db, 1, live, rids[0], 0xaa)
		dead := mustBegin(t, db, 2)
		mustUpdate(t, db, 2, dead, heap.RID{Page: 5, Slot: 0}, 0xdd)
		db.Crash(2)
		// A collection empties sync.Pools; start from one, so whether another
		// falls inside the measurement does not depend on the backlog.
		runtime.GC()
		before := mallocs()
		rep, err := db.Recover([]machine.NodeID{2})
		n := mallocs() - before
		if err != nil {
			t.Fatal(err)
		}
		if rep.TagScanLines == 0 || rep.RedoApplied+rep.RedoSkipped < backlog {
			t.Fatalf("report %+v: the scene needs a tag scan and the backlog's redo", rep)
		}
		if got, err := db.Read(1, rids[0]); err != nil || got.Tag != 1 || got.Data[0] != 0xaa {
			t.Fatalf("%v = %+v, %v; want the live transaction's update, tagged with node 1", rids[0], got, err)
		}
		return n
	}
	// The fewest of three runs, so an allocation by anything else running in
	// the process does not count.
	least := func(backlog int) uint64 {
		m := recoverAllocs(backlog)
		for i := 0; i < 2; i++ {
			m = min(m, recoverAllocs(backlog))
		}
		return m
	}
	short, long := least(400), least(1600)
	if long > short {
		t.Errorf("recovery allocates %d times after 400 committed transactions and %d after 1600; want no more", short, long)
	}
}

// TestRedoAllRedoesTheTail: under Redo All a survivor's update logged after
// the attempt's walk of its log but before the survivors discard their caches
// is in no view, and the discard takes its only copy: the redo scan must read
// the survivor's tail and redo it. The update is staged by an observer sink
// at the lock-rebuild phase's end, between the walk and the discard.
func TestRedoAllRedoesTheTail(t *testing.T) {
	db := newNodeTestDB(t, VolatileRedoAll, 3)
	rid := heap.RID{Page: 1, Slot: 0}
	live := mustBegin(t, db, 1)
	mustUpdate(t, db, 1, live, rid, 1)
	dead := mustBegin(t, db, 2)
	mustUpdate(t, db, 2, dead, heap.RID{Page: 5, Slot: 0}, 0xdd)
	db.Crash(2)

	staged := false
	var stageErr error
	o := obs.New()
	o.SetSink(eventFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhase && e.Phase == obs.PhaseLockRebuild && !staged {
			staged = true
			stageErr = db.Update(1, live, rid, []byte{2})
		}
	}))
	db.AttachObserver(o)
	if _, err := db.Recover([]machine.NodeID{2}); err != nil {
		t.Fatal(err)
	}
	if !staged || stageErr != nil {
		t.Fatalf("staged = %v, %v: the case tests nothing", staged, stageErr)
	}
	if got, err := db.Read(1, rid); err != nil || got.Data[0] != 2 {
		t.Errorf("%v = %v, %v; want the update logged after the walk (2)", rid, got.Data, err)
	}
	if err := db.Commit(1, live); err != nil {
		t.Fatal(err)
	}
	if v := db.CheckIFA(1); len(v) != 0 {
		t.Fatalf("IFA violations: %v", v)
	}
}

// TestStableImageFallbackCountsRetries: a tag-scan undo with no committed
// record of its slot in any log reads the slot's last committed image from
// the stable database, through the buffer manager's retrying reader — so a
// transient read error there is retried, counted in IORetries and reported
// as an I/O retry event, like every other page read.
func TestStableImageFallbackCountsRetries(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 3)
	migrated := heap.RID{Page: 1, Slot: 0}
	neighbour := heap.RID{Page: 1, Slot: 4} // same page, another line
	w := mustBegin(t, db, 0)
	mustUpdate(t, db, 0, w, neighbour, 5)
	if err := db.Commit(0, w); err != nil {
		t.Fatal(err)
	}
	if err := db.BM.FlushPage(0, migrated.Page); err != nil {
		t.Fatal(err)
	}
	dead := mustBegin(t, db, 2)
	mustUpdate(t, db, 2, dead, migrated, 66)
	// Node 1 takes a copy of the line, which outlives node 2's crash.
	if _, err := db.Read(1, migrated); err != nil {
		t.Fatal(err)
	}
	db.Crash(2)

	// From the end of the undo phase on, the first page read fails once.
	armed, failed, retries := false, false, 0
	db.Disk.SetFault(func(op string) error {
		if armed && op == "read" && !failed {
			failed = true
			return storage.ErrTransient
		}
		return nil
	})
	o := obs.New()
	o.SetSink(eventFunc(func(e obs.Event) {
		switch {
		case e.Kind == obs.KindPhase && e.Phase == obs.PhaseUndo:
			armed = true
		case e.Kind == obs.KindIORetry:
			retries++
		}
	}))
	db.AttachObserver(o)
	base := db.BM.Stats().IORetries
	rep, err := db.Recover([]machine.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	if !failed || rep.UndoApplied != 1 {
		t.Fatalf("read failed = %v, undo applied = %d: the case needs one tag-scan undo from the stable image", failed, rep.UndoApplied)
	}
	if got := db.BM.Stats().IORetries - base; got != 1 || retries != 1 {
		t.Errorf("IORetries grew by %d, %d I/O retry events; want the one retried read in each", got, retries)
	}
	if got, err := db.Read(1, migrated); err != nil || got.Occupied() {
		t.Errorf("%v = %+v, %v; want the empty slot of the stable image back", migrated, got, err)
	}
}

// TestRecoveryAllocationVolume pins how many bytes one recovery allocates
// per record the logs retain. The crashed node's stable log is read where it
// lies on its device and only its update and compensation records are copied
// out, and every list a view builds is sized by what it keeps, so the volume
// is a fraction of the logs' own size. The backlog — over 10⁵ records on four
// nodes, built on one goroutine so it repeats exactly — ends with a live
// transaction on node 1 and an unfinished one on node 3, which then crashes.
func TestRecoveryAllocationVolume(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes mean nothing under the race detector")
	}
	const minRetained = 100_000
	db := newNodeTestDB(t, VolatileSelectiveRedo, 4)
	retained := func() int {
		n := 0
		for _, l := range db.Logs {
			n += l.Len()
		}
		return n
	}
	rid := func(nd machine.NodeID, i int) heap.RID {
		return heap.RID{Page: storage.PageID(4*int(nd) + i/4%4), Slot: uint16(i / 16 % 8)}
	}
	for i := 0; retained() < minRetained; i++ {
		nd := machine.NodeID(i % 4)
		id := mustBegin(t, db, nd)
		mustUpdate(t, db, nd, id, rid(nd, i), byte(i))
		if err := db.Commit(nd, id); err != nil {
			t.Fatal(err)
		}
	}
	live := mustBegin(t, db, 1)
	mustUpdate(t, db, 1, live, rid(1, 0), 0xaa)
	dead := mustBegin(t, db, 3)
	mustUpdate(t, db, 3, dead, rid(3, 0), 0xdd)
	records := retained()
	db.Crash(3)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := db.Recover([]machine.NodeID{3})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aborted) != 1 || rep.Aborted[0] != dead || rep.RedoApplied+rep.RedoSkipped == 0 {
		t.Fatalf("report %+v: the scene needs the dead transaction aborted and the backlog's redo", rep)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
	t.Logf("%d records retained, %d B allocated by Recover, %.2f B per record", records, after.TotalAlloc-before.TotalAlloc, perRecord)
	// 28.5 B since the log walks emit 24-byte redo candidates carrying slot
	// index and version, with no pointer list per survivor beside them (27.7 B
	// with 16-byte candidates and those lists; 39.8 B with a slab of one run
	// per candidate; 86.1 B when the crashed log was copied off its device and
	// decoded whole, and survivors' lists were sized by their logs' length).
	// The bound is 27.7 B plus 12 %.
	const bound = 31.0
	if perRecord > bound {
		t.Errorf("Recover allocates %.2f B per retained record, want at most %v", perRecord, bound)
	}
}
