package fault

import (
	"fmt"
	"testing"

	"smdb/internal/machine"
	"smdb/internal/sched"
)

// The workload-time decision sites are taken on every coherency transition,
// logged update and log force — CrashAtMigration inside a machine stripe
// hold. With no schedule session attached, a draw at probability 0 costs the
// PRNG draw and nothing else: no key is formatted, nothing is allocated.
func TestDrawsWithoutASessionAllocateNothing(t *testing.T) {
	in := New(Plan{Seed: 7})
	in.Arm()
	ev := machine.Event{Kind: machine.EventMigrate, From: 2, To: 1}
	for name, draw := range map[string]func(){
		"CrashAtMigration": func() { in.CrashAtMigration(ev, 4) },
		"CrashAtUpdate":    func() { in.CrashAtUpdate(3, 4) },
		"TornForce":        func() { in.TornForce(1, 4) },
	} {
		if a := testing.AllocsPerRun(100, draw); a != 0 {
			t.Errorf("%s allocates %.0f times per call with no session attached, want 0", name, a)
		}
	}
	if st := in.Stats(); st.Crashes != 0 {
		t.Fatalf("%d crashes fired at probability 0", st.Crashes)
	}
}

// A recording session sees every draw under the key it always had
// ("migrate:<node>", "update:<node>", "torn:<node>"), and with or without a
// session the draws consume the same PRNG stream, so a seed fires the same
// faults and committed schedules replay as before.
func TestDrawKeysAndStreamUnchanged(t *testing.T) {
	plan := Plan{Seed: 11, PCrashAtMigration: 0.3, PCrashAtUpdate: 0.3, PTornForce: 0.3, MaxCrashes: 1 << 30}
	script := func(in *Injector) []string {
		var out []string
		for i := 0; i < 60; i++ {
			nd := machine.NodeID(i % 4)
			switch i % 3 {
			case 0:
				out = append(out, fmt.Sprint(in.CrashAtMigration(machine.Event{Kind: machine.EventMigrate, From: nd, To: (nd + 1) % 4}, 4)))
			case 1:
				out = append(out, fmt.Sprint(in.CrashAtUpdate(nd, 4)))
			case 2:
				frac, fire := in.TornForce(nd, 4)
				out = append(out, fmt.Sprint(frac, fire))
			}
		}
		return out
	}
	bare := New(plan)
	bare.Arm()
	recorded := New(plan)
	recorded.Arm()
	rec := sched.NewRecorder()
	recorded.SetSched(rec)
	if got, want := script(recorded), script(bare); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a recording session changed the decisions:\n got %v\nwant %v", got, want)
	}
	draws := rec.Schedule().Draws
	if len(draws) != 60 {
		t.Fatalf("the session recorded %d draws, want 60", len(draws))
	}
	for i, d := range draws {
		nd := i % 4
		want := [...]string{fmt.Sprintf("migrate:%d", nd), fmt.Sprintf("update:%d", nd), fmt.Sprintf("torn:%d", nd)}[i%3]
		if d.Key != want {
			t.Fatalf("draw %d recorded under %q, want %q", i, d.Key, want)
		}
	}
	// Both injectors have drawn the same count from the same stream.
	if a, b := bare.rng.Int63(), recorded.rng.Int63(); a != b {
		t.Fatal("the injectors' PRNG streams diverged")
	}
}
