package buffer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

type fixture struct {
	m    *machine.Machine
	disk *storage.Disk
	logs []*wal.Log
	bm   *Manager
}

func newFixture(t *testing.T, nodes int) *fixture {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, Lines: 4096})
	layout, err := heap.NewLayout(m.LineSize(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	store := heap.NewStore(m, layout, 8)
	disk := storage.NewDisk(layout.PageBytes())
	logs := make([]*wal.Log, nodes)
	for i := range logs {
		logs[i], err = wal.NewLog(machine.NodeID(i), storage.NewLogDevice())
		if err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{m: m, disk: disk, logs: logs, bm: NewManager(store, disk, logs, func() int64 { return m.Config().Cost.LogForce })}
}

// inSlotSection runs step inside a line section of node nd on rid's line:
// the only form a slot write takes.
func (f *fixture) inSlotSection(t *testing.T, nd machine.NodeID, rid heap.RID, step func(sec *machine.Section) error) {
	t.Helper()
	line, _, err := f.bm.Store.LineOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	var sec machine.Section
	if err := f.m.Enter(&sec, nd, line); err != nil {
		t.Fatal(err)
	}
	err = step(&sec)
	if lerr := sec.Leave(); err == nil {
		err = lerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// putSlot overwrites rid's slot with sd on behalf of node nd.
func (f *fixture) putSlot(t *testing.T, nd machine.NodeID, rid heap.RID, sd heap.SlotData) {
	t.Helper()
	f.inSlotSection(t, nd, rid, func(sec *machine.Section) error {
		return f.bm.Store.WriteSlotIn(sec, rid, sd, new(heap.SlotBuf))
	})
}

func TestFetchFormatsFreshPage(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 3); err != nil {
		t.Fatal(err)
	}
	if !f.bm.Store.ResidentPage(3) {
		t.Fatal("page not resident after fetch")
	}
	s := f.bm.Stats()
	if s.Formats != 1 || s.DiskFetches != 0 {
		t.Errorf("stats = %+v, want one format", s)
	}
	// Second fetch is a hit.
	if err := f.bm.Fetch(1, 3); err != nil {
		t.Fatal(err)
	}
	if s := f.bm.Stats(); s.Fetches != 2 || s.Formats != 1 {
		t.Errorf("stats after hit = %+v", s)
	}
}

func TestFlushAndRefetch(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 1); err != nil {
		t.Fatal(err)
	}
	rid := heap.RID{Page: 1, Slot: 2}
	sd := heap.SlotData{Tag: machine.NoNode, Flags: heap.FlagOccupied, Version: 5, Data: []byte("persist me")}
	f.putSlot(t, 0, rid, sd)
	f.bm.MarkDirty(1)
	if !f.bm.Dirty(1) {
		t.Fatal("page not dirty")
	}
	clock0 := f.m.Clock(0)
	if err := f.bm.FlushPage(0, 1); err != nil {
		t.Fatal(err)
	}
	if f.bm.Dirty(1) {
		t.Error("page still dirty after flush")
	}
	if f.m.Clock(0)-clock0 < f.m.Config().Cost.DiskWrite {
		t.Error("flush did not charge disk time")
	}
	// Evict everything, then refetch from disk.
	if err := f.bm.EvictPage(0, 1); err != nil {
		t.Fatal(err)
	}
	if f.bm.Store.ResidentPage(1) {
		t.Fatal("page resident after evict")
	}
	if err := f.bm.Fetch(1, 1); err != nil {
		t.Fatal(err)
	}
	got, err := f.bm.Store.ReadSlot(1, rid, new(heap.SlotBuf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 5 || string(got.Data[:10]) != "persist me" {
		t.Errorf("refetched slot = %+v", got)
	}
	if s := f.bm.Stats(); s.DiskFetches != 1 {
		t.Errorf("DiskFetches = %d, want 1", s.DiskFetches)
	}
}

func TestWALEnforcedOnFlush(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 0); err != nil {
		t.Fatal(err)
	}
	// Two nodes update page 0, logging volatilely.
	lsn0 := f.logs[0].Append(wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(0, 1), Page: 0})
	f.bm.NoteUpdate(0, 0, lsn0)
	lsn1 := f.logs[1].Append(wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(1, 1), Page: 0})
	f.bm.NoteUpdate(0, 1, lsn1)

	pend := f.bm.PendingWAL(0)
	if len(pend) != 2 {
		t.Fatalf("PendingWAL = %v, want both nodes", pend)
	}
	if err := f.bm.FlushPage(0, 0); err != nil {
		t.Fatal(err)
	}
	// Both logs must now be stable through the noted LSNs.
	if f.logs[0].ForcedLSN() < lsn0 || f.logs[1].ForcedLSN() < lsn1 {
		t.Errorf("WAL not enforced: forced = %d, %d", f.logs[0].ForcedLSN(), f.logs[1].ForcedLSN())
	}
	if s := f.bm.Stats(); s.WALForces != 2 {
		t.Errorf("WALForces = %d, want 2", s.WALForces)
	}
	if len(f.bm.PendingWAL(0)) != 0 {
		t.Error("PendingWAL nonempty after flush")
	}
}

func TestStealDetection(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 2); err != nil {
		t.Fatal(err)
	}
	rid := heap.RID{Page: 2, Slot: 0}
	// An undo-tagged slot marks an uncommitted update: flushing is a steal.
	f.putSlot(t, 0, rid, heap.SlotData{Tag: 0, Flags: heap.FlagOccupied, Version: 1, Data: []byte("uncommitted")})
	if err := f.bm.FlushPage(0, 2); err != nil {
		t.Fatal(err)
	}
	if s := f.bm.Stats(); s.Steals != 1 {
		t.Errorf("Steals = %d, want 1", s.Steals)
	}
	// Clear the tag; the next flush is not a steal.
	f.inSlotSection(t, 0, rid, func(sec *machine.Section) error {
		return f.bm.Store.WriteTagIn(sec, rid, machine.NoNode)
	})
	if err := f.bm.FlushPage(0, 2); err != nil {
		t.Fatal(err)
	}
	if s := f.bm.Stats(); s.Steals != 1 || s.Flushes != 2 {
		t.Errorf("stats = %+v, want 1 steal of 2 flushes", s)
	}
}

func TestFlushLostPageFails(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 0); err != nil {
		t.Fatal(err)
	}
	// Node 0 holds every line exclusively; crash it: the page is destroyed.
	f.m.Crash(0)
	if err := f.bm.FlushPage(1, 0); !errors.Is(err, machine.ErrLineLost) {
		t.Errorf("flush of destroyed page: err = %v, want ErrLineLost", err)
	}
}

func TestPartialReinstallAfterCrash(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 0); err != nil {
		t.Fatal(err)
	}
	slotA := heap.RID{Page: 0, Slot: 0} // line 1
	slotB := heap.RID{Page: 0, Slot: 4} // line 2
	for _, rid := range []heap.RID{slotA, slotB} {
		f.putSlot(t, 0, rid, heap.SlotData{Tag: machine.NoNode, Flags: heap.FlagOccupied, Version: 1, Data: []byte("v1")})
	}
	if err := f.bm.FlushPage(0, 0); err != nil {
		t.Fatal(err)
	}
	// Node 1 updates slot A (its line migrates to node 1) and keeps v2
	// only in its cache; the rest of the page stays on node 0.
	f.putSlot(t, 1, slotA, heap.SlotData{Tag: machine.NoNode, Flags: heap.FlagOccupied, Version: 2, Data: []byte("v2")})
	// Crash node 0: the header, slot B's line, and the unused line die;
	// slot A's line (on node 1) survives.
	f.m.Crash(0)
	if f.bm.Store.ResidentPage(0) {
		t.Fatal("page should be partially lost")
	}
	if err := f.bm.Fetch(1, 0); err != nil {
		t.Fatal(err)
	}
	// Slot A must keep v2 (survivor), slot B restored to v1 from disk.
	a, err := f.bm.Store.ReadSlot(1, slotA, new(heap.SlotBuf))
	if err != nil || a.Version != 2 {
		t.Errorf("slot A = %+v, %v; want v2 preserved", a, err)
	}
	bSlot, err := f.bm.Store.ReadSlot(1, slotB, new(heap.SlotBuf))
	if err != nil || bSlot.Version != 1 {
		t.Errorf("slot B = %+v, %v; want v1 from disk", bSlot, err)
	}
}

func TestDropNode(t *testing.T) {
	f := newFixture(t, 2)
	if err := f.bm.Fetch(0, 0); err != nil {
		t.Fatal(err)
	}
	lsn := f.logs[0].Append(wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(0, 1), Page: 0})
	f.bm.NoteUpdate(0, 0, lsn)
	lsn1 := f.logs[1].Append(wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(1, 1), Page: 0})
	f.bm.NoteUpdate(0, 1, lsn1)
	f.bm.DropNode(0)
	if got := f.bm.PendingWAL(0); len(got) != 1 || got[1] != lsn1 {
		t.Errorf("PendingWAL after dropping node 0 = %v, want only node 1's LSN %d", got, lsn1)
	}
	// A column clear is the whole column: a page node 0 never touched stays
	// clean, and node 0 notes afresh after its restart.
	if len(f.bm.PendingWAL(1)) != 0 {
		t.Error("an untouched page has pending WAL")
	}
	f.bm.NoteUpdate(0, 0, lsn)
	if got := f.bm.PendingWAL(0); len(got) != 2 || got[0] != lsn {
		t.Errorf("PendingWAL after a fresh note = %v, want both nodes", got)
	}
}

// TestNoteUpdateSurvivesFlushClear lands updates between FlushPage's WAL
// snapshot and its clear (from the disk write in between): the flush clears
// only the entries its forces covered, so a newer LSN — the same node's or
// another's — stays pending, and the page stays dirty for the next flush.
func TestNoteUpdateSurvivesFlushClear(t *testing.T) {
	f := newFixture(t, 3)
	if err := f.bm.Fetch(0, 0); err != nil {
		t.Fatal(err)
	}
	logUpdate := func(nd machine.NodeID) wal.LSN {
		return f.logs[nd].Append(wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(nd, 1), Page: 0})
	}
	covered := logUpdate(0)
	f.bm.NoteUpdate(0, 0, covered)
	gone := logUpdate(2)
	f.bm.NoteUpdate(0, 2, gone)
	f.bm.MarkDirty(0)
	var raced0, raced1 wal.LSN
	f.disk.SetFault(func(op string) error {
		if op == "write" && raced0 == 0 {
			raced0, raced1 = logUpdate(0), logUpdate(1)
			f.bm.NoteUpdate(0, 0, raced0)
			f.bm.NoteUpdate(0, 1, raced1)
			f.bm.MarkDirty(0)
		}
		return nil
	})
	if err := f.bm.FlushPage(0, 0); err != nil {
		t.Fatal(err)
	}
	f.disk.SetFault(nil)
	if got := f.bm.PendingWAL(0); len(got) != 2 || got[0] != raced0 || got[1] != raced1 {
		t.Errorf("PendingWAL after the flush = %v, want node 0 at %d and node 1 at %d", got, raced0, raced1)
	}
	if !f.bm.Dirty(0) {
		t.Error("the flush cleaned a page updated after its image was taken")
	}
	// The next flush enforces and clears what the first left.
	if err := f.bm.FlushPage(0, 0); err != nil {
		t.Fatal(err)
	}
	if f.logs[0].ForcedLSN() < raced0 || f.logs[1].ForcedLSN() < raced1 {
		t.Errorf("WAL not enforced on the second flush: forced %d, %d", f.logs[0].ForcedLSN(), f.logs[1].ForcedLSN())
	}
	if len(f.bm.PendingWAL(0)) != 0 || f.bm.Dirty(0) {
		t.Error("the second flush left the page pending or dirty")
	}
}

// TestUpdatePathLayout pins what keeps one node's updates off every other
// node's cache lines: each node's fetch counter and column of the (page,
// LSN) table sit on lines no other node's words touch.
func TestUpdatePathLayout(t *testing.T) {
	line := func(w *atomic.Uint64) uintptr { return uintptr(unsafe.Pointer(w)) / 64 }
	for _, nodes := range []int{1, 2, 3, 4, 5, 64} {
		m := machine.New(machine.Config{Nodes: nodes, Lines: 1024})
		layout, err := heap.NewLayout(m.LineSize(), 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, pages := range []int{1, 7, 8, 64} {
			bm := NewManager(heap.NewStore(m, layout, pages), storage.NewDisk(layout.PageBytes()), make([]*wal.Log, nodes), nil)
			if len(bm.cols) != nodes {
				t.Fatalf("%d nodes: %d columns", nodes, len(bm.cols))
			}
			owner := map[uintptr]int{} // cache line -> the node whose words are on it
			claim := func(w *atomic.Uint64, nd int, what string) {
				if o, ok := owner[line(w)]; ok && o != nd {
					t.Errorf("%d nodes, %d pages: node %d's %s shares a line with node %d's", nodes, pages, nd, what, o)
				}
				owner[line(w)] = nd
			}
			for nd, c := range bm.cols {
				if len(c.lsn) != pages {
					t.Fatalf("%d pages: node %d's column has %d entries", pages, nd, len(c.lsn))
				}
				claim(c.fetches, nd, "fetch counter")
				for p := range c.lsn {
					claim(&c.lsn[p], nd, "LSN column")
				}
			}
		}
	}
}

func TestFlushAll(t *testing.T) {
	f := newFixture(t, 1)
	for p := storage.PageID(0); p < 3; p++ {
		if err := f.bm.Fetch(0, p); err != nil {
			t.Fatal(err)
		}
		f.bm.MarkDirty(p)
	}
	if err := f.bm.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if n := len(f.bm.DirtyPages()); n != 0 {
		t.Errorf("%d dirty pages after FlushAll", n)
	}
	if s := f.bm.Stats(); s.Flushes != 3 {
		t.Errorf("Flushes = %d, want 3", s.Flushes)
	}
}

// TestConcurrentFirstFetchFormatsOnce: nodes that touch a fresh page at the
// same moment must not each format it. The loser of an unserialized race sees
// the winner's half-installed page as lost and installs empty lines over it —
// over records the winner may already have written — or fails on a line the
// winner has line-locked.
func TestConcurrentFirstFetchFormatsOnce(t *testing.T) {
	const nodes, rounds = 4, 50
	for round := 0; round < rounds; round++ {
		f := newFixture(t, nodes)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for nd := 0; nd < nodes; nd++ {
			wg.Add(1)
			go func(nd machine.NodeID) {
				defer wg.Done()
				<-start
				for p := 0; p < f.bm.Store.NPages; p++ {
					if err := f.bm.Fetch(nd, storage.PageID(p)); err != nil {
						t.Errorf("node %d fetching page %d: %v", nd, p, err)
					}
				}
			}(machine.NodeID(nd))
		}
		close(start)
		wg.Wait()
		if got, want := f.bm.Stats().Formats, int64(f.bm.Store.NPages); got != want {
			t.Fatalf("round %d: %d pages were formatted %d times", round, want, got)
		}
	}
}
