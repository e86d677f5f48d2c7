package recovery

import (
	"errors"
	"testing"
	"time"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// Restart recovery's and undo's slot I/O are line sections like the update
// path's. These tests pin what must not move with the form — the simulated
// operations each step issues — and what the form is for: two sections and
// no allocation per redo line, and a section that a crash of its own node
// ends cleanly.

// seedLine commits one insert into each slot of page's first data line from
// node nd and returns the slots; the line ends up exclusive in nd's cache.
func seedLine(t *testing.T, db *DB, nd machine.NodeID, page storage.PageID) []heap.RID {
	t.Helper()
	id, err := db.Begin(nd)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]heap.RID, db.Store.Layout.RecsPerLine)
	for s := range rids {
		rids[s] = heap.RID{Page: page, Slot: uint16(s)}
		if err := db.Insert(nd, id, rids[s], []byte{1, byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(nd, id); err != nil {
		t.Fatal(err)
	}
	return rids
}

// redoRunOver builds a same-line redo run over rids for node onto: the first
// candidate carries its slot's current version (a skip), the rest fresh ones
// (applies). It returns the run and the line. (The reads it makes to find
// the versions are onto's.)
func redoRunOver(t *testing.T, db *DB, onto machine.NodeID, rids []heap.RID) ([]redoCand, machine.LineID) {
	t.Helper()
	line, _, err := db.Store.LineOf(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	run := make([]redoCand, len(rids))
	for i, rid := range rids {
		cur, err := db.Read(onto, rid)
		if err != nil {
			t.Fatal(err)
		}
		version := cur.Version
		if i > 0 {
			version = db.NextVersion()
		}
		run[i] = db.candidate(onto, &wal.Record{
			Type: wal.TypeUpdate, Txn: wal.MakeTxnID(onto, 1), Page: rid.Page, Slot: rid.Slot,
			Version: version, After: SlotImage(db.Store.Layout, heap.FlagOccupied, []byte{2, byte(i)}),
		})
	}
	return run, line
}

// stepFootprint is what one recovery step costs the simulated machine: the
// counters it moves and the simulated time it charges the node running it.
type stepFootprint struct {
	st    machine.Stats
	clock int64
}

// TestRecoveryStepMachineFootprint pins the simulated-machine operations of
// the slot critical sections restart recovery and undo run: how they take
// their line locks is host business, the reads, writes, acquisitions and
// simulated nanoseconds are the reproduced system. The expected values were
// recorded when these steps used stand-alone GetLine/ReleaseLine calls and
// the by-node slot writers, and are never edited; "redo-line" was recorded
// when redo apply became two passes, a change of the simulated operations
// themselves.
func TestRecoveryStepMachineFootprint(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 3)
	measure := func(nd machine.NodeID, op func() error) stepFootprint {
		t.Helper()
		// No queueing behind an earlier holder's simulated release time: the
		// charge is the step's own.
		db.M.AdvanceClock(nd, db.M.MaxClock()-db.M.Clock(nd))
		st0, c0 := db.M.Stats(), db.M.Clock(nd)
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return stepFootprint{st: db.M.Stats().Sub(st0), clock: db.M.Clock(nd) - c0}
	}
	got := map[string]stepFootprint{}
	// Each step once where the line is exclusive in the running node's
	// cache, and once from another node, which migrates it.
	for _, c := range []struct {
		suffix string
		page   storage.PageID
		nd     machine.NodeID
	}{{"", 1, 0}, {"-remote", 2, 1}} {
		rids := seedLine(t, db, 0, c.page)
		img := SlotImage(db.Store.Layout, heap.FlagOccupied, []byte{9})
		got["install-image"+c.suffix] = measure(c.nd, func() error {
			return db.installImage(c.nd, rids[3], img, wal.MakeTxnID(2, 0))
		})
		rids = seedLine(t, db, 0, c.page+2)
		run, _ := redoRunOver(t, db, 0, rids[:3])
		for i := range run {
			run[i].onto = c.nd
		}
		var rep RecoveryReport
		got["redo-line"+c.suffix] = measure(c.nd, func() error { return db.applyRedo(run, &rep) })
		if rep.RedoSkipped != 1 || rep.RedoApplied != 2 {
			t.Fatalf("redo-line%s: %d skipped, %d applied; want 1, 2", c.suffix, rep.RedoSkipped, rep.RedoApplied)
		}
		rids = seedLine(t, db, 0, c.page+4)
		got["clear-stale-tag"+c.suffix] = measure(c.nd, func() error { return db.clearStaleTag(c.nd, rids[0]) })
	}
	for op, g := range got {
		if w, ok := stepFootprintWant[op]; !ok {
			t.Errorf("%s: no recorded footprint", op)
		} else if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", op, g, w)
		}
	}
}

// stepCost is a footprint whose every access hits the running node's cache
// once its line locks are taken, migrations of them moving the lines there.
func stepCost(reads, writes, lineLocks, migrations, clock int64) stepFootprint {
	return stepFootprint{st: machine.Stats{Reads: reads, Writes: writes, LocalHits: reads + writes,
		LineLockAcquires: lineLocks, Migrations: migrations}, clock: clock}
}

var stepFootprintWant = map[string]stepFootprint{
	"install-image":          stepCost(0, 2, 2, 0, 2300), // header and record line locks, slot write, page version
	"install-image-remote":   stepCost(0, 2, 2, 2, 2700),
	"redo-line":              stepCost(1, 2, 2, 0, 2400), // two line locks: one read of the line, a write per winning slot
	"redo-line-remote":       stepCost(1, 2, 2, 1, 2600),
	"clear-stale-tag":        stepCost(0, 1, 1, 0, 1150),
	"clear-stale-tag-remote": stepCost(0, 1, 1, 1, 1350),
}

// TestRedoLineIsTwoSections: however many candidates a line carries, and
// however they interleave with another line's, applying them on resident
// lines enters the line twice — one section reads it whole, one writes each
// winning slot once — and neither section yields, so each is one hold of the
// line's stripe (a section keeps its stripe from step to step until it
// yields: machine.TestSectionHoldsItsStripeBetweenSteps).
func TestRedoLineIsTwoSections(t *testing.T) {
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	rids := seedLine(t, db, 0, 1)
	first, _ := redoRunOver(t, db, 0, rids)
	second, _ := redoRunOver(t, db, 0, rids) // the same slots again, newer versions but the first
	other, _ := redoRunOver(t, db, 0, seedLine(t, db, 0, 2))
	var cands []redoCand
	for i := range rids {
		cands = append(cands, first[i], other[i], second[i])
	}
	before := db.M.Stats()
	var rep RecoveryReport
	if err := db.applyRedo(cands, &rep); err != nil {
		t.Fatal(err)
	}
	// Slot 0's two candidates carry its own version; the others' later
	// candidates win.
	if rep.RedoSkipped != 3 || rep.RedoApplied != len(cands)-3 {
		t.Fatalf("%d skipped, %d applied over %d candidates", rep.RedoSkipped, rep.RedoApplied, len(cands))
	}
	winners := 2 * (len(rids) - 1)
	st := db.M.Stats().Sub(before)
	if st.LineLockAcquires != 4 || st.Reads != 2 || st.Writes != int64(winners) {
		t.Errorf("%d candidates on two lines took %d line locks, %d reads, %d writes; want 4, 2, %d",
			len(cands), st.LineLockAcquires, st.Reads, st.Writes, winners)
	}
}

// TestRedoApplyAllocs: replaying a slice of candidates on resident lines
// allocates nothing — the per-slot table is the DB's, the line and slot
// buffers are on the stack, and no list of lines or winners is built.
func TestRedoApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	db := newNodeTestDB(t, VolatileSelectiveRedo, 2)
	var cands []redoCand
	for page := storage.PageID(1); page <= 3; page++ {
		run, _ := redoRunOver(t, db, 0, seedLine(t, db, 0, page))
		cands = append(cands, run...)
	}
	var rep RecoveryReport
	apply := func() {
		if err := db.applyRedo(cands, &rep); err != nil {
			t.Fatal(err)
		}
	}
	apply() // every later pass is all version-check skips
	if n := testing.AllocsPerRun(20, apply); n != 0 {
		t.Errorf("applyRedo over %d candidates: %v allocations per pass, want 0", len(cands), n)
	}
}

// TestRecoverySectionsAgainstCrashes: an undo install and a redo apply work
// beside crash sweeps of a bystander (a sweep takes every stripe, a section
// keeps one between steps), and then a transition-fault hook takes their own
// node down inside them — at the migration the record line's acquisition
// causes, which for the install is in the middle of its header section. The
// step reports ErrNodeDown, leaves no line lock and no stripe behind, and
// nothing is wedged.
func TestRecoverySectionsAgainstCrashes(t *testing.T) {
	steps := map[string]func(db *DB, nd machine.NodeID, run []redoCand) error{
		"install-image": func(db *DB, nd machine.NodeID, run []redoCand) error {
			rid := heap.RID{Page: run[0].rec.Page, Slot: run[0].rec.Slot}
			return db.installImage(nd, rid, run[0].rec.After, wal.MakeTxnID(2, 0))
		},
		"redo-apply": func(db *DB, nd machine.NodeID, run []redoCand) error {
			for i := range run {
				run[i].onto = nd
			}
			var rep RecoveryReport
			return db.applyRedo(run, &rep)
		},
	}
	for name, step := range steps {
		db := newNodeTestDB(t, VolatileSelectiveRedo, 3)
		run, line := redoRunOver(t, db, 0, seedLine(t, db, 0, 1))
		hdr := db.Store.HeaderLine(1)
		var last error
		within(t, 30*time.Second, func() {
			stop, swept := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(swept)
				for {
					select {
					case <-stop:
						return
					default:
						db.M.Crash(2)
						_ = db.M.Restart(2)
					}
				}
			}()
			for i := 0; i < 200; i++ {
				if err := step(db, machine.NodeID(i%2), run); err != nil {
					t.Errorf("%s beside a bystander's crashes: %v", name, err)
					break
				}
			}
			// The line is node 1's; node 0's next acquisition migrates it.
			db.M.SetTransitionFault(func(ev machine.Event, _ int) []machine.NodeID {
				if ev.Line == line {
					return []machine.NodeID{0}
				}
				return nil
			})
			last = step(db, 0, run)
			close(stop)
			<-swept
			db.M.Crash(2) // takes every stripe: the step left none held
		})
		if !errors.Is(last, machine.ErrNodeDown) {
			t.Errorf("%s on a node crashed inside it: %v, want ErrNodeDown", name, last)
		}
		for _, l := range []machine.LineID{hdr, line} {
			if owner := db.M.LineLockHeldBy(l); owner != machine.NoNode {
				t.Errorf("%s: line %d still locked by node %d", name, l, owner)
			}
		}
	}
}
