package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/storage"
)

// chaosPlan is the TestChaosSeededSweep fault mix, reused by the
// record/replay tests so recorded schedules cover every fault flavour.
func chaosPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed:              seed,
		PCrashAtMigration: 0.02,
		PCrashAtUpdate:    0.01,
		PTornForce:        0.02,
		PCrashInRecovery:  0.3,
		PCoordinatorCrash: 0.5,
		PIOError:          0.05,
		MaxCrashes:        2,
	}
}

// imageHash digests every slot of the database (flags, version, payload) as
// seen from the first live node — the "identical images" half of the replay
// determinism gate.
func imageHash(t *testing.T, db *recovery.DB) string {
	t.Helper()
	coord := db.M.AliveNodes()[0]
	h := sha256.New()
	for p := 0; p < db.Cfg.Pages; p++ {
		for s := 0; s < db.Store.Layout.SlotsPerPage(); s++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(s)}
			sd, err := db.Read(coord, rid)
			if err != nil {
				t.Fatalf("image hash read %v: %v", rid, err)
			}
			fmt.Fprintf(h, "%v|%d|%d|%x\n", rid, sd.Flags, sd.Version, sd.Data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordRun records one seeded chaos run and returns its result, schedule,
// and final image hash.
func recordRun(t *testing.T, proto recovery.Protocol, seed int64, episodes int) (ChaosResult, *sched.Schedule, string) {
	t.Helper()
	db := chaosDB(t, proto, 4)
	inj := fault.New(chaosPlan(seed))
	rec := sched.NewRecorder()
	res, err := RunChaosSession(db, inj, chaosSpec(seed), episodes, rec)
	if err != nil {
		t.Fatalf("record run (proto %v seed %d): %v", proto, seed, err)
	}
	return res, rec.Schedule(), imageHash(t, db)
}

// replayRun replays a schedule and returns the result and image hash.
func replayRun(t *testing.T, proto recovery.Protocol, schedule *sched.Schedule, episodes int) (ChaosResult, string) {
	t.Helper()
	db := chaosDB(t, proto, 4)
	inj := fault.New(chaosPlan(schedule.FaultSeed))
	res, err := RunChaosSession(db, inj, chaosSpec(schedule.Seed), episodes, sched.NewReplayer(schedule))
	if err != nil {
		t.Fatalf("replay run (proto %v): %v", proto, err)
	}
	return res, imageHash(t, db)
}

// TestChaosRecordReplayDeterminism is the replay gate: record a seeded chaos
// run, replay the schedule twice, and require the full ChaosResult and the
// final database images to be identical across record and both replays.
func TestChaosRecordReplayDeterminism(t *testing.T) {
	protos := []recovery.Protocol{
		recovery.VolatileSelectiveRedo,
		recovery.StableEager,
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res0, schedule, img0 := recordRun(t, proto, seed, 3)
				if len(res0.Violations) != 0 {
					t.Fatalf("seed %d: recording run violated IFA:\n%s",
						seed, strings.Join(res0.Violations, "\n"))
				}
				if len(schedule.Points) == 0 || len(schedule.Episodes) != 3 {
					t.Fatalf("seed %d: implausible schedule: %d points, episodes %v",
						seed, len(schedule.Points), schedule.Episodes)
				}
				res1, img1 := replayRun(t, proto, schedule, 0)
				res2, img2 := replayRun(t, proto, schedule, 0)
				if !reflect.DeepEqual(res1, res2) {
					t.Errorf("seed %d: two replays disagree:\n  %+v\n  %+v", seed, res1, res2)
				}
				if img1 != img2 {
					t.Errorf("seed %d: two replays produced different images", seed)
				}
				if !reflect.DeepEqual(res0, res1) {
					t.Errorf("seed %d: replay diverged from recording:\n  rec %+v\n  rep %+v", seed, res0, res1)
				}
				if img0 != img1 {
					t.Errorf("seed %d: replay image differs from recording's", seed)
				}
			}
		})
	}
}

// TestScheduleRoundTrip checks that a recorded schedule survives JSON
// serialization bit-for-bit (the replay above re-reads it from disk).
func TestScheduleRoundTrip(t *testing.T) {
	_, schedule, _ := recordRun(t, recovery.VolatileSelectiveRedo, 2, 2)
	path := filepath.Join(t.TempDir(), "schedule.json")
	if err := schedule.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := sched.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(schedule, got) {
		t.Fatalf("schedule did not round-trip:\n  wrote %d points %d draws %d notes\n  read  %d points %d draws %d notes",
			len(schedule.Points), len(schedule.Draws), len(schedule.Notes),
			len(got.Points), len(got.Draws), len(got.Notes))
	}
}
