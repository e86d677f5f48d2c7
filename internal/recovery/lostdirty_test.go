package recovery

import (
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
)

// TestCheckpointAfterRecoveryPassesLostPages: a crash that destroys every
// line of a dirty page — here a dead transaction's update, never logged
// stably nor flushed — leaves nothing for redo to reinstall, so the page is
// its disk image again. Recover forgets it, under every protocol, and the
// next checkpoint succeeds instead of failing to flush a page no cache holds.
func TestCheckpointAfterRecoveryPassesLostPages(t *testing.T) {
	for _, proto := range []Protocol{VolatileRedoAll, VolatileSelectiveRedo, BaselineFA} {
		t.Run(proto.String(), func(t *testing.T) {
			db := newNodeTestDB(t, proto, 4)
			rid := heap.RID{Page: storage.PageID(12), Slot: 0}
			id := mustBegin(t, db, 3)
			if err := db.Insert(3, id, rid, []byte{1}); err != nil {
				t.Fatal(err)
			}
			if err := db.Commit(3, id); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(3); err != nil {
				t.Fatal(err)
			}
			dead := mustBegin(t, db, 3)
			if err := db.Update(3, dead, rid, []byte{2}); err != nil {
				t.Fatal(err)
			}
			db.Crash(3)
			base := db.Store.PageBase(rid.Page)
			for i := 0; i < db.Store.Layout.LinesPerPage; i++ {
				if db.M.Resident(base + machine.LineID(i)) {
					t.Fatalf("line %d of page %d survived; the scenario needs a dirty page the crash destroyed", i, rid.Page)
				}
			}
			if !db.BM.Dirty(rid.Page) {
				t.Fatalf("page %d is clean at the crash; the scenario needs it dirty", rid.Page)
			}
			if _, err := db.Recover([]machine.NodeID{3}); err != nil {
				t.Fatal(err)
			}
			if db.BM.Dirty(rid.Page) {
				t.Errorf("page %d is dirty after Recover with no line resident", rid.Page)
			}
			if err := db.RestartNode(3); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(0); err != nil {
				t.Fatalf("checkpoint after Recover: %v", err)
			}
			if got, err := db.Read(0, rid); err != nil || got.Data[0] != 1 {
				t.Errorf("%v = %v, %v; want the committed 1", rid, got.Data, err)
			}
		})
	}
}
