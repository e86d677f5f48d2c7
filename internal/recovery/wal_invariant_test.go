package recovery_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// TestQuickWALInvariant checks the write-ahead-log rule end to end: any
// record version present in the *stable database* had its update (or
// compensation) record on some node's *stable log* no later than the flush
// that wrote it (checkpoint-time log truncation may discard such records
// afterwards, once the value is durably in the database — hence the
// accumulated everStable set). The buffer manager's flush-time WAL
// enforcement — forcing every updating node's log through its last update
// to the page, via the section 6 shared (page, LSN) table — is what makes
// this hold under random interleavings of updates, commits, aborts, steals,
// and checkpoints.
func TestQuickWALInvariant(t *testing.T) {
	type key struct {
		p storage.PageID
		s uint16
		v uint64
	}
	accumulate := func(t *testing.T, db *recovery.DB, everStable map[key]bool) {
		t.Helper()
		for _, l := range db.Logs {
			l.StableRecords(0, func(r *wal.Record) bool {
				if r.Type == wal.TypeUpdate || r.Type == wal.TypeCLR {
					everStable[key{r.Page, r.Slot, r.Version}] = true
				}
				return false
			})
		}
	}
	check := func(t *testing.T, db *recovery.DB, seed int64, stable map[key]bool) bool {
		t.Helper()
		layout := db.Store.Layout
		accumulate(t, db, stable)
		for p := 0; p < db.Store.NPages; p++ {
			if !db.Disk.Exists(storage.PageID(p)) {
				continue
			}
			img := make([]byte, db.Disk.PageSize())
			if err := db.Disk.ReadPage(storage.PageID(p), img); err != nil {
				t.Fatal(err)
			}
			for line := 1; line < layout.LinesPerPage; line++ {
				lineImg := img[line*layout.LineSize : (line+1)*layout.LineSize]
				for s := 0; s < layout.RecsPerLine; s++ {
					sd := heap.DecodeSlotFromLine(layout, lineImg, s)
					if sd.Version == 0 {
						continue
					}
					slot := uint16((line-1)*layout.RecsPerLine + s)
					if !stable[key{storage.PageID(p), slot, sd.Version}] {
						t.Logf("seed %d: disk page %d slot %d version %d has no stable log record",
							seed, p, slot, sd.Version)
						return false
					}
				}
			}
		}
		return true
	}

	f := func(seed int64) bool {
		everStable := make(map[key]bool)
		r := rand.New(rand.NewSource(seed))
		db, err := recovery.New(recovery.Config{
			Machine:        machine.Config{Nodes: 3, Lines: 2048},
			Protocol:       recovery.VolatileSelectiveRedo,
			LinesPerPage:   4,
			RecsPerLine:    4,
			Pages:          6,
			LockTableLines: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr := txn.NewManager(db)
		layout := db.Store.Layout
		total := db.Store.NPages * layout.SlotsPerPage()
		open := make(map[int]*txn.Txn) // by slot index, to keep locks disjoint
		for step := 0; step < 120; step++ {
			switch r.Intn(10) {
			case 0, 1: // flush (steal) a random page, then re-check WAL
				p := storage.PageID(r.Intn(db.Store.NPages))
				if !db.Store.ResidentPage(p) {
					continue // nothing in memory to flush
				}
				if err := db.BM.FlushPage(machine.NodeID(r.Intn(3)), p); err != nil {
					t.Fatal(err)
				}
				if !check(t, db, seed, everStable) {
					return false
				}
			case 2: // checkpoint
				// Flush dirty pages one at a time first, checking the
				// rule after each, since Checkpoint's own flush-then-
				// truncate happens atomically from the test's viewpoint.
				for _, p := range db.BM.DirtyPages() {
					if err := db.BM.FlushPage(0, p); err != nil {
						t.Fatal(err)
					}
					if !check(t, db, seed, everStable) {
						return false
					}
				}
				if err := db.Checkpoint(0); err != nil {
					t.Fatal(err)
				}
				if !check(t, db, seed, everStable) {
					return false
				}
			default: // transactional work on a private slot
				idx := r.Intn(total)
				tx := open[idx]
				if tx == nil {
					tx, err = mgr.Begin(machine.NodeID(r.Intn(3)))
					if err != nil {
						t.Fatal(err)
					}
					open[idx] = tx
				}
				rid := heap.RID{Page: storage.PageID(idx / layout.SlotsPerPage()), Slot: uint16(idx % layout.SlotsPerPage())}
				var opErr error
				if sd, err := db.Read(tx.Node(), rid); err == nil && sd.Occupied() && !sd.Deleted() {
					opErr = tx.Write(rid, []byte{byte(step)})
				} else {
					opErr = tx.Insert(rid, []byte{byte(step)})
				}
				if opErr != nil {
					t.Fatalf("seed %d: op: %v", seed, opErr)
				}
				switch r.Intn(4) {
				case 0:
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					delete(open, idx)
				case 1:
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					delete(open, idx)
				}
			}
		}
		return check(t, db, seed, everStable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
