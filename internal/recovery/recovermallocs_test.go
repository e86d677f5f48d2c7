package recovery

import (
	"math"
	"runtime"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
)

// benchLayoutBacklog builds, on the benchmark's layout (4 nodes, 64 pages of
// 8 lines of 4 records, a 2 048-line lock table), a backlog of over 10⁵
// retained log records on one goroutine, so it repeats exactly: every page
// seeded and checkpointed, then single-update transactions committed round
// the nodes, each node on its own 16 pages, then a live transaction on node
// 1 and an unfinished one on node 3, which crashes.
func benchLayoutBacklog(t *testing.T, proto Protocol) *DB {
	t.Helper()
	db, err := New(Config{
		Machine:  machine.Config{Nodes: 4, Lines: 4096},
		Protocol: proto, LinesPerPage: 8, RecsPerLine: 4, Pages: 64, LockTableLines: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := db.Store.Layout.SlotsPerPage()
	for p := 0; p < 64; p++ {
		id := mustBegin(t, db, 0)
		for s := 0; s < slots; s++ {
			if err := db.Insert(0, id, heap.RID{Page: storage.PageID(p), Slot: uint16(s)}, []byte{1, byte(p), byte(s)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(0, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	rid := func(nd machine.NodeID, i int) heap.RID {
		return heap.RID{Page: storage.PageID(16*int(nd) + i/4%16), Slot: uint16(i / 64 % slots)}
	}
	retained := func() int {
		n := 0
		for _, l := range db.Logs {
			n += l.Len()
		}
		return n
	}
	for i := 0; retained() < 100_000; i++ {
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
	db.Crash(3)
	return db
}

// TestRecoverMallocs pins the heap allocations of one Recover on the
// benchmark's layout, under both protocols. The benchmark's
// allocs_per_recover counts the whole process's and moves by one from run to
// run; one Recover's own count, the fewest of three, repeats exactly (a
// single run now and then counts one more, the runtime's), so this is the
// gate that recovery allocates no more than it did. Lower a pin when a
// change lowers the count; never raise one without saying why.
func TestRecoverMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	// 90 and 56 when every survivor kept a pointer list of its update and
	// compensation records beside the candidate list, which was filtered from
	// them after the walks, and the tag scan took a sorted snapshot of each
	// survivor's cached lines.
	for _, tc := range []struct {
		proto Protocol
		pin   uint64
	}{{VolatileSelectiveRedo, 53}, {VolatileRedoAll, 53}} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			least := uint64(math.MaxUint64)
			for range 3 {
				db := benchLayoutBacklog(t, tc.proto)
				runtime.GC()
				before := mallocs()
				rep, err := db.Recover([]machine.NodeID{3})
				n := mallocs() - before
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Aborted) != 1 || rep.RedoApplied == 0 || tc.proto.UndoTagging() && rep.TagScanLines == 0 {
					t.Fatalf("report %+v: the scene needs the dead transaction aborted, the backlog's redo and, under Selective Redo, a tag scan", rep)
				}
				least = min(least, n)
			}
			t.Logf("one Recover: %d heap allocations", least)
			if least > tc.pin {
				t.Errorf("one Recover made %d heap allocations, want at most %d", least, tc.pin)
			}
		})
	}
}
