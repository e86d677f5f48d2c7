package sched

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderCapturesFloorOrder checks that a recording session serializes
// concurrent actors and appends their points in floor-grant order.
func TestRecorderCapturesFloorOrder(t *testing.T) {
	rec := NewRecorder()
	rec.Arm()
	var wg sync.WaitGroup
	for a := int32(0); a < 3; a++ {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rec.Exit(a)
			for i := 0; i < 4; i++ {
				rec.Point(a, SiteCheck, 0)
			}
		}()
	}
	wg.Wait()
	rec.Disarm()
	sch := rec.Schedule()
	if len(sch.Points) != 12 {
		t.Fatalf("recorded %d points, want 12", len(sch.Points))
	}
	per := map[int32]int{}
	for _, p := range sch.Points {
		if p.Site != SiteCheck {
			t.Fatalf("unexpected site %q", p.Site)
		}
		per[p.Actor]++
	}
	for a := int32(0); a < 3; a++ {
		if per[a] != 4 {
			t.Fatalf("actor %d recorded %d points, want 4", a, per[a])
		}
	}
}

// TestReplayEnforcesOrder replays a hand-built schedule and checks the
// actors' observed execution order matches it exactly.
func TestReplayEnforcesOrder(t *testing.T) {
	src := &Schedule{Version: ScheduleVersion, FailEpisode: -1}
	// Interleave two actors in a specific, non-round-robin order.
	order := []int32{0, 0, 1, 0, 1, 1}
	for _, a := range order {
		src.Points = append(src.Points, Point{Actor: a, Site: SiteCheck})
	}
	rep := NewReplayer(src)
	rep.Arm()
	var mu sync.Mutex
	var got []int32
	var wg sync.WaitGroup
	for a := int32(0); a < 2; a++ {
		a := a
		n := 0
		for _, o := range order {
			if o == a {
				n++
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rep.Exit(a)
			for i := 0; i < n; i++ {
				rep.Point(a, SiteCheck, 0)
				mu.Lock()
				got = append(got, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Disarm()
	if d, msg := rep.Diverged(); d {
		t.Fatalf("replay diverged: %s", msg)
	}
	if !reflect.DeepEqual(got, order) {
		t.Fatalf("execution order %v, want %v", got, order)
	}
}

// TestReplayReturnsRecordedArg checks stop points echo the recorded outcome,
// not the live one.
func TestReplayReturnsRecordedArg(t *testing.T) {
	src := &Schedule{
		Version:     ScheduleVersion,
		FailEpisode: -1,
		Points: []Point{
			{Actor: 0, Site: SiteStop, Arg: 0},
			{Actor: 0, Site: SiteStop, Arg: 1},
		},
	}
	rep := NewReplayer(src)
	rep.Arm()
	defer rep.Disarm()
	if got := rep.Point(0, SiteStop, 0); got != 0 {
		t.Fatalf("first stop observation = %d, want 0", got)
	}
	// Live arg says "keep going" (0) but the recording stopped here.
	if got := rep.Point(0, SiteStop, 0); got != 1 {
		t.Fatalf("second stop observation = %d, want recorded 1", got)
	}
}

// TestDisarmedPassThrough checks points outside the armed window are free.
func TestDisarmedPassThrough(t *testing.T) {
	rec := NewRecorder()
	if got := rec.Point(3, SiteCheck, 7); got != 7 {
		t.Fatalf("disarmed point = %d, want 7", got)
	}
	if n := len(rec.Schedule().Points); n != 0 {
		t.Fatalf("disarmed recording stored %d points, want 0", n)
	}
	rep := NewReplayer(&Schedule{Version: ScheduleVersion})
	if got := rep.Point(3, SiteCheck, 7); got != 7 {
		t.Fatalf("disarmed replay point = %d, want 7", got)
	}
}

// TestNilSessionSafe checks the nil session is a working disabled session.
func TestNilSessionSafe(t *testing.T) {
	var s *Session
	if got := s.Point(0, SiteCheck, 5); got != 5 {
		t.Fatalf("nil Point = %d, want 5", got)
	}
	s.Arm()
	s.Disarm()
	s.Yield(0)
	s.Exit(0)
	s.Note(0, "x", 0)
	s.NoteFailure(0, 0)
	if d, _ := s.Diverged(); d {
		t.Fatal("nil session reports diverged")
	}
	if s.Recording() || s.Replaying() {
		t.Fatal("nil session claims a mode")
	}
	d := s.Draw("k", func() Draw { return Draw{Fire: true} })
	if !d.Fire {
		t.Fatal("nil session did not pass the draw through")
	}
	if got := s.BeginEpisode(4, 0); got != 4 {
		t.Fatalf("nil BeginEpisode = %d, want 4", got)
	}
}

// TestDrawFIFOPerKey checks draws replay per-key in FIFO order and that an
// exhausted key yields a quiet no-fire.
func TestDrawFIFOPerKey(t *testing.T) {
	rec := NewRecorder()
	outcomes := []Draw{
		{Fire: true, Node: 2},
		{Fire: false},
		{Fire: true, Frac: 0.5},
	}
	i := 0
	mk := func() Draw { d := outcomes[i]; i++; return d }
	rec.Draw("migrate:1", mk)
	rec.Draw("io:force", mk)
	rec.Draw("migrate:1", mk)
	sch := rec.Schedule()
	if len(sch.Draws) != 3 {
		t.Fatalf("recorded %d draws, want 3", len(sch.Draws))
	}

	rep := NewReplayer(sch)
	fail := func() Draw { t.Fatal("replay consulted the live PRNG"); return Draw{} }
	if d := rep.Draw("migrate:1", fail); !d.Fire || d.Node != 2 {
		t.Fatalf("first migrate draw = %+v", d)
	}
	if d := rep.Draw("io:force", fail); d.Fire {
		t.Fatalf("io draw fired, recorded no-fire: %+v", d)
	}
	if d := rep.Draw("migrate:1", fail); !d.Fire || d.Frac != 0.5 {
		t.Fatalf("second migrate draw = %+v", d)
	}
	// Exhausted key: quiet no-fire, still no PRNG consultation.
	if d := rep.Draw("migrate:1", fail); d.Fire {
		t.Fatalf("exhausted key fired: %+v", d)
	}
	// Never-recorded key: same.
	if d := rep.Draw("update:9", fail); d.Fire {
		t.Fatalf("unknown key fired: %+v", d)
	}
}

// TestWatchdogDivergence checks a waiter stuck behind a head that never
// arrives unblocks via the watchdog, reports why, and that stop points
// answer "stop now" afterwards.
func TestWatchdogDivergence(t *testing.T) {
	src := &Schedule{
		Version:     ScheduleVersion,
		FailEpisode: -1,
		Points:      []Point{{Actor: 9, Site: SiteCheck}}, // actor 9 never shows up
	}
	rep := NewReplayer(src)
	rep.SetWatchdog(50 * time.Millisecond)
	rep.Arm()
	defer rep.Disarm()
	start := time.Now()
	got := rep.Point(0, SiteStop, 0)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	if got != 1 {
		t.Fatalf("post-divergence stop = %d, want 1 (stop now)", got)
	}
	d, msg := rep.Diverged()
	if !d || msg == "" {
		t.Fatalf("divergence not reported: %v %q", d, msg)
	}
}

// TestFetchArgMismatchDiverges checks an identifier-site argument mismatch is
// an immediate divergence.
func TestFetchArgMismatchDiverges(t *testing.T) {
	src := &Schedule{
		Version:     ScheduleVersion,
		FailEpisode: -1,
		Points:      []Point{{Actor: 0, Site: SiteFetch, Arg: 3}},
	}
	rep := NewReplayer(src)
	rep.Arm()
	defer rep.Disarm()
	rep.Point(0, SiteFetch, 8) // recording fetched page 3
	if d, msg := rep.Diverged(); !d || msg == "" {
		t.Fatal("fetch arg mismatch did not diverge")
	}
}

// TestScheduleExhaustionDiverges checks a point past the end of the schedule
// diverges rather than deadlocking.
func TestScheduleExhaustionDiverges(t *testing.T) {
	rep := NewReplayer(&Schedule{Version: ScheduleVersion, FailEpisode: -1})
	rep.Arm()
	defer rep.Disarm()
	rep.Point(0, SiteCheck, 0)
	if d, _ := rep.Diverged(); !d {
		t.Fatal("exhausted schedule did not diverge")
	}
}

// TestEpisodeRoundTrip checks BeginEpisode records the original index and
// replays it back even when the surrounding loop index differs (the shrink
// case: episode 2 replayed as the run's first episode).
func TestEpisodeRoundTrip(t *testing.T) {
	rec := NewRecorder()
	rec.Arm()
	if got := rec.BeginEpisode(2, 777); got != 2 {
		t.Fatalf("record BeginEpisode = %d, want 2", got)
	}
	rec.Disarm()
	rec.NoteFailure(2, 777)
	sch := rec.Schedule()
	if !reflect.DeepEqual(sch.Episodes, []int{2}) || !reflect.DeepEqual(sch.EpisodeSeeds, []int64{777}) {
		t.Fatalf("episode metadata %v / %v", sch.Episodes, sch.EpisodeSeeds)
	}
	if sch.FailEpisode != 2 || sch.FailSeed != 777 {
		t.Fatalf("failure metadata %d / %d", sch.FailEpisode, sch.FailSeed)
	}

	rep := NewReplayer(sch)
	rep.Arm()
	defer rep.Disarm()
	if n := rep.EpisodePoints(); n != 1 {
		t.Fatalf("EpisodePoints = %d, want 1", n)
	}
	// The replaying harness passes its own loop index (0); the session must
	// return the recorded original index.
	if got := rep.BeginEpisode(0, 0); got != 2 {
		t.Fatalf("replay BeginEpisode = %d, want recorded 2", got)
	}
}

// TestNotesRecordOnly checks notes are captured when recording armed and
// ignored otherwise.
func TestNotesRecordOnly(t *testing.T) {
	rec := NewRecorder()
	rec.Note(0, "install", 5) // disarmed: dropped
	rec.Arm()
	rec.Note(1, "getline", 9)
	rec.Disarm()
	sch := rec.Schedule()
	if len(sch.Notes) != 1 || sch.Notes[0].Actor != 1 {
		t.Fatalf("notes = %+v", sch.Notes)
	}
	rep := NewReplayer(sch)
	rep.Arm()
	rep.Note(1, "getline", 9) // replay: ignored, not awaited
	rep.Disarm()
}

// TestReadFileVersionCheck checks version skew is rejected.
func TestReadFileVersionCheck(t *testing.T) {
	s := &Schedule{Version: ScheduleVersion + 1}
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("version skew accepted")
	}
}

// TestReadFileRefusesGroupForceSchedules checks that a schedule recorded with
// the removed epoch/group commit forces is refused by name, not replayed into
// a divergence.
func TestReadFileRefusesGroupForceSchedules(t *testing.T) {
	for name, doc := range map[string]string{
		"spec":  `{"version":1,"failEpisode":-1,"spec":{"txnsPerNode":2,"groupForce":true},"points":[]}`,
		"point": `{"version":1,"failEpisode":-1,"points":[{"a":0,"s":"check"},{"a":1,"s":"gforce"}]}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "group commit forces") {
			t.Errorf("%s: ReadFile = %v, want a refusal naming group commit forces", name, err)
		}
	}
}
