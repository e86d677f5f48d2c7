package audit

import (
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/deps"
)

// The residency model tells its reader every event and every update, and a
// hook set without an auditor has a nil one. Like the nil observer and nil
// tracker, the nil-auditor fast path must cost a pointer test and zero
// allocations; these benchmarks (with -benchmem) and the allocation test pin
// that contract.

func BenchmarkNilAuditorNote(b *testing.B) {
	var a *Auditor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Note(deps.Note{Kind: deps.NoteUpdate, Txn: 1, Line: 5, LSN: int64(i), Sim: int64(i)})
	}
}

func BenchmarkNilAuditorEvent(b *testing.B) {
	var a *Auditor
	e := obs.Event{Kind: obs.KindMigrate, Node: 1, A: 5, B: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Sim = int64(i)
		a.Event(e)
	}
}

// BenchmarkEnabledAuditorNoteWrite is the comparison point: the price an
// update pays once -audit turns the auditor on (model and auditor together;
// deps.BenchmarkTrackerNoteWrite is the model alone).
func BenchmarkEnabledAuditorNoteWrite(b *testing.B) {
	m, _ := audited(Config{})
	m.OnEvent(obs.Event{Kind: obs.KindTxnBegin, Node: 0, Sim: 0, A: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.NoteWrite(1, 0, int32(i&7), int64(i), int64(i+1), int64(i))
	}
}

func TestNilAuditorHooksDoNotAllocate(t *testing.T) {
	var a *Auditor
	e := obs.Event{Kind: obs.KindMigrate, Node: 1, A: 5, B: 0}
	if n := testing.AllocsPerRun(100, func() {
		a.Note(deps.Note{Kind: deps.NoteUpdate, Txn: 1, Line: 5, LSN: 1, Sim: 10})
		a.Event(e)
		a.Note(deps.Note{Class: deps.Episode, Kind: deps.NoteCrash})
		a.Note(deps.Note{Class: deps.Episode, Kind: deps.NoteRecovered})
		_ = a.Model()
		_ = a.Enabled()
		_ = a.ViolationCount()
	}); n != 0 {
		t.Errorf("disabled auditor hooks allocate %v times per call", n)
	}
}
