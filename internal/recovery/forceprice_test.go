package recovery_test

import (
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
)

// The buffer manager's WAL-rule force costs what the DB's own forces cost:
// DB.LogForceCost, read when the force is made, so setting Cfg.NVRAMLog
// after New (as E4 does) reprices it too.
func TestFlushForcePricedByTheDB(t *testing.T) {
	var cost machine.CostModel
	flush := func(nvram bool) (charged, forces int64) {
		db, mgr := newDB(t, recovery.VolatileSelectiveRedo, 2)
		db.Cfg.NVRAMLog = nvram
		cost = db.M.Config().Cost
		rid := heap.RID{Page: 1, Slot: 0}
		tx, err := mgr.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(rid, []byte{7}); err != nil {
			t.Fatal(err)
		}
		clock, before := db.M.Clock(0), db.BM.Stats().WALForces
		if err := db.BM.FlushPage(0, rid.Page); err != nil {
			t.Fatal(err)
		}
		return db.M.Clock(0) - clock, db.BM.Stats().WALForces - before
	}
	disk, diskForces := flush(false)
	nvram, nvramForces := flush(true)
	if diskForces != 1 || nvramForces != 1 {
		t.Fatalf("flushing the uncommitted update forced %d and %d times, want once each", diskForces, nvramForces)
	}
	if got, want := disk-nvram, cost.LogForce-cost.LogForceNVRAM; got != want {
		t.Fatalf("disk flush charged %d more than the NVRAM one, want the price difference %d", got, want)
	}
}
