package debt

import (
	"testing"

	"smdb/internal/obs"
)

// The nil-receiver guard benchmarks: with the debt surface disabled the
// event sink pays one pointer test and must not allocate. Same convention as
// the obs / audit guard benches.

func BenchmarkNilTrackerNoteAppend(b *testing.B) {
	var t *Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: int64(i), A: int64(i), B: 1, C: 7, Dur: 100})
	}
}

func BenchmarkNilTrackerNoteForce(b *testing.B) {
	var t *Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.OnEvent(obs.Event{Kind: obs.KindWALForce, Sim: int64(i), A: 1, B: int64(i)})
	}
}

func BenchmarkNilTrackerNoteDirty(b *testing.B) {
	var t *Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.OnEvent(obs.Event{Kind: obs.KindPageDirty, A: int64(i)})
	}
}

func BenchmarkLiveTrackerNoteAppend(b *testing.B) {
	t := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.OnEvent(obs.Event{Kind: obs.KindWALAppend, Sim: int64(i), A: int64(i + 1), B: 1, C: 7, Dur: 100})
	}
}

// TestNilTrackerHooksDoNotAllocate pins the zero-allocation property (the
// benchmarks measure it; this gate fails the build if it regresses).
func TestNilTrackerHooksDoNotAllocate(t *testing.T) {
	var tr *Tracker
	n := testing.AllocsPerRun(100, func() {
		feedAppend(tr, 0, 1, 1, 7, 100, 0)
		feedForce(tr, 0, 1, 1, 0)
		feedCrash(tr, 0)
		feedDiscard(tr, 0, 1)
		feedDirty(tr, 1)
		feedClean(tr, 1)
		feedRecovery(tr, 1, true, 0, 0)
	})
	if n != 0 {
		t.Fatalf("nil tracker hooks allocated %v times per run, want 0", n)
	}
}
