package recovery

import (
	"testing"

	"smdb/internal/machine"
)

// TestRecoverGivesEveryWorkerItsOwnArena: Cfg is a public field and the chaos
// sweeps raise RecoveryWorkers after New. Arenas are unlocked per-slot
// scratch, so workers past the slots New allocated used to share slot 0 —
// on two or more CPUs that corrupted the redo run/tag scratch (index-out-of-
// range panics in applyRedoRun, and tags applied to the wrong record).
func TestRecoverGivesEveryWorkerItsOwnArena(t *testing.T) {
	db, err := New(Config{
		Machine:  machine.Config{Nodes: 2, Lines: 4096},
		Protocol: VolatileSelectiveRedo, LinesPerPage: 4, RecsPerLine: 4, Pages: 4, LockTableLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	db.Cfg.RecoveryWorkers = workers
	db.Crash(1)
	if _, err := db.Recover([]machine.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	slots := map[*recArena]bool{}
	for w := 0; w < workers; w++ {
		slots[db.arena(w)] = true
	}
	if len(slots) != workers {
		t.Errorf("%d workers share %d arenas", workers, len(slots))
	}
}
