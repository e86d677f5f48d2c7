package workload

import (
	"reflect"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/sched"
)

// wfConfig bounds the recorder tightly: a small top-K that must
// discriminate. (The run's few dozen transactions rarely reach the 1-in-64
// reservoir, a pure function of the txn id.)
func wfConfig(nodes int) waterfall.Config {
	return waterfall.Config{TopK: 4, Nodes: nodes}
}

// slowIDs returns the tail sampler's retained transaction ids in Slow order.
func slowIDs(wf *waterfall.Recorder) []int64 {
	var ids []int64
	for _, w := range wf.Slow(0) {
		ids = append(ids, w.Txn)
	}
	return ids
}

// TestWaterfallReplaySelectsIdenticalTxns is the tail sampler's determinism
// gate: a recorded chaos run and its replays must sample the same slow
// transactions — the top-K windows see identical sim latencies, and the
// 1-in-N reservoir is a pure function of the txn id. Without this, a trace
// captured from a replayed incident would spotlight different transactions
// than the incident itself.
func TestWaterfallReplaySelectsIdenticalTxns(t *testing.T) {
	proto := recovery.VolatileSelectiveRedo
	seed := int64(2)

	db := chaosDB(t, proto, 4)
	wf0 := waterfall.New(wfConfig(db.M.Nodes()))
	db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Waterfall: wf0})
	inj := fault.New(chaosPlan(seed))
	rec := sched.NewRecorder()
	if _, err := RunChaosSession(db, inj, chaosSpec(seed), 2, rec); err != nil {
		t.Fatalf("record run: %v", err)
	}
	schedule := rec.Schedule()
	ids0 := slowIDs(wf0)
	if len(ids0) == 0 {
		t.Fatal("tail sampler retained nothing during the recording run")
	}
	if wf0.Completed() == 0 {
		t.Fatal("no waterfalls completed during the recording run")
	}

	for i := 0; i < 2; i++ {
		db := chaosDB(t, proto, 4)
		wf := waterfall.New(wfConfig(db.M.Nodes()))
		db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Waterfall: wf})
		inj := fault.New(chaosPlan(schedule.FaultSeed))
		if _, err := RunChaosSession(db, inj, chaosSpec(schedule.Seed), 0, sched.NewReplayer(schedule)); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if ids := slowIDs(wf); !reflect.DeepEqual(ids0, ids) {
			t.Errorf("replay %d sampled different transactions:\n  recorded %v\n  replayed %v", i, ids0, ids)
		}
		if got := wf.Completed(); got != wf0.Completed() {
			t.Errorf("replay %d completed %d waterfalls, recording completed %d", i, got, wf0.Completed())
		}
	}
}
