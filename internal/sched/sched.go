// Package sched records and replays the nondeterministic decisions of a
// concurrent chaos run, so a failing interleaving caught once under -race
// can be reproduced deterministically forever after.
//
// A run's nondeterminism has exactly three sources once every PRNG is
// seeded: (1) when each worker observes the harness stop signal, (2) how the
// Go scheduler interleaves the workers' engine calls, and (3) the order in
// which concurrent engine calls reach the fault injector's shared PRNG. The
// session pins all three:
//
//   - Points. Workers call Point at every scheduling-relevant site ("stop"
//     checks, the transaction-layer freeze check, buffer-manager page
//     fetches, episode boundaries). Both modes serialize execution through
//     the "floor" — the exclusive right to run between two of one's points:
//     recording lets the Go scheduler pick which blocked worker takes the
//     floor next (that choice IS the recorded nondeterminism, appended as
//     {actor, site, arg} in floor-grant order); replay grants the floor in
//     recorded order instead, blocking each caller until its point is at
//     the schedule head. Because recording and replay execute segments
//     under the same one-runnable-worker rule, a replayed run sees exactly
//     the recorded engine state at every step — every interleaving, lock
//     outcome, and version allocation reproduces regardless of -race
//     timing skew.
//   - Draws. Fault-injector outcomes are recorded per keyed site and
//     replayed from per-key FIFOs, so a replay fires exactly the recorded
//     faults (same victims, same torn fractions) without consulting a PRNG.
//   - Notes. Record-only annotations (machine line-lock acquisitions,
//     installs, crashes) that document the low-level interleaving for
//     humans and the shrinker; replay never awaits them.
//
// Replay divergence — a candidate schedule whose control flow no longer
// matches, as delta-debugging candidates routinely are — is detected by a
// watchdog timeout instead of deadlocking: every waiter unblocks, stop
// points return "stop now" so workers drain, and Diverged reports why.
package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Actor ids. Workers use their node id; the harness uses HarnessActor.
const (
	// HarnessActor is the chaos harness itself (episode markers).
	HarnessActor int32 = -1
	// NoActor marks a free floor.
	NoActor int32 = -2
)

// Well-known point sites.
const (
	// SiteStop is a worker's observation of the harness stop signal; Arg is
	// 1 when the worker saw "stop" and exited the workload.
	SiteStop = "stop"
	// SiteCheck is the transaction layer's per-operation freeze/liveness
	// check — the entry point of every Read/Write/Commit/Abort.
	SiteCheck = "check"
	// SiteFetch is a buffer-manager page fetch on behalf of a worker: the
	// site where a stale disk image can be reinstalled over destroyed cache
	// lines, and therefore the hazard window of the lost-write race.
	SiteFetch = "fetch"
	// SiteEpisode is the harness marker opening episode Arg (the episode's
	// ORIGINAL index, so seed derivation survives shrinking).
	SiteEpisode = "episode"
)

// Point is one awaited scheduling decision: actor reached site, with a
// site-specific argument (stop outcome, episode index).
type Point struct {
	Actor int32  `json:"a"`
	Site  string `json:"s"`
	Arg   int64  `json:"v,omitempty"`
}

// Draw is one fault-injector outcome at a keyed decision site.
type Draw struct {
	Key  string  `json:"k"`
	Fire bool    `json:"f,omitempty"`
	Node int32   `json:"n,omitempty"`
	Frac float64 `json:"x,omitempty"`
}

// Note is a record-only annotation of low-level interleaving (machine line
// locks, installs, crashes). Replay ignores notes.
type Note struct {
	Actor int32  `json:"a"`
	Site  string `json:"s"`
	Arg   int64  `json:"v,omitempty"`
}

// RunSpec captures the workload and injector knobs a replay must reuse
// verbatim: per-worker PRNG streams derive from the workload shape, and the
// injector's guard logic (crash budget, I/O burst bounds, the PIOError>0
// gate) runs outside the recorded draws.
type RunSpec struct {
	TxnsPerNode     int     `json:"txnsPerNode,omitempty"`
	OpsPerTxn       int     `json:"opsPerTxn,omitempty"`
	ReadFraction    float64 `json:"readFraction,omitempty"`
	SharingFraction float64 `json:"sharingFraction,omitempty"`
	HotSpot         float64 `json:"hotSpot,omitempty"`
	HotProb         float64 `json:"hotProb,omitempty"`
	AbortFraction   float64 `json:"abortFraction,omitempty"`
	HeapPages       int     `json:"heapPages,omitempty"`
	MaxCrashes      int     `json:"maxCrashes,omitempty"`
	MinAlive        int     `json:"minAlive,omitempty"`
	IOErrorBurst    int     `json:"ioErrorBurst,omitempty"`
	PIOError        float64 `json:"pioError,omitempty"`
	// AblateInstallGate records a run with the machine's install gate
	// removed (the lost-write race back in): a replay or shrink of the
	// schedule removes it too.
	AblateInstallGate bool `json:"ablateInstallGate,omitempty"`
}

// Schedule is a serialized chaos run: everything needed to re-execute it
// deterministically. Produced by a recording session, consumed by a replay.
type Schedule struct {
	Version int `json:"version"`
	// Seed is the workload spec seed; FaultSeed the injector plan seed.
	Seed      int64  `json:"seed"`
	FaultSeed int64  `json:"faultSeed"`
	Protocol  string `json:"protocol,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	// Spec carries the recorded run's workload/injector shape so a replay
	// can rebuild an identical environment from the schedule file alone.
	Spec *RunSpec `json:"spec,omitempty"`
	// Episodes lists the original episode indices in run order (also
	// present as SiteEpisode points; kept here for human readers and for
	// the shrinker). EpisodeSeeds are the derived per-episode spec seeds.
	Episodes     []int   `json:"episodes,omitempty"`
	EpisodeSeeds []int64 `json:"episodeSeeds,omitempty"`
	// FailEpisode is the original index of the first violating episode in
	// the run that produced this schedule (-1 = none); FailSeed its derived
	// spec seed. Recorded so a violation dump carries its own repro seed.
	FailEpisode int     `json:"failEpisode"`
	FailSeed    int64   `json:"failSeed,omitempty"`
	Points      []Point `json:"points"`
	Draws       []Draw  `json:"draws,omitempty"`
	Notes       []Note  `json:"notes,omitempty"`
}

// ScheduleVersion is the current serialization version.
const ScheduleVersion = 1

// WriteJSON serializes the schedule as indented JSON to w.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WriteFile serializes the schedule as indented JSON.
func (s *Schedule) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a schedule written by WriteFile.
func ReadFile(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Epoch/group commit forces left the engine; a schedule recorded with
	// them on (spec key "groupForce", point site "gforce") waits at points
	// no commit reaches any more.
	if bytes.Contains(data, []byte(`"groupForce"`)) || bytes.Contains(data, []byte(`"gforce"`)) {
		return nil, fmt.Errorf("sched: %s was recorded with epoch/group commit forces (-groupforce), which the engine no longer has: every commit now forces its own log, so the replay would diverge at the first group-force point; record the run again", path)
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("sched: parse %s: %w", path, err)
	}
	if s.Version != ScheduleVersion {
		return nil, fmt.Errorf("sched: %s has schedule version %d, want %d", path, s.Version, ScheduleVersion)
	}
	return &s, nil
}

// Mode of a session.
type Mode int

const (
	// ModeRecord appends every decision to a fresh schedule.
	ModeRecord Mode = iota + 1
	// ModeReplay enforces a recorded schedule via floor tokens.
	ModeReplay
)

// DefaultWatchdog is the replay divergence timeout: how long a waiter may
// sit behind a schedule head that never arrives before the session declares
// the replay diverged. Generous, because it only fires on genuinely dead
// replays (shrink candidates with broken control flow).
const DefaultWatchdog = 10 * time.Second

// Session is one record or replay context. All methods are safe for
// concurrent use and nil-receiver-safe (a nil session is a disabled one).
type Session struct {
	mode Mode

	mu   sync.Mutex
	cond *sync.Cond
	// armed gates points: only the workload window of each episode is
	// scheduled; harness-phase engine calls (recovery, checker, stranded
	// rollback) pass through. Draws are NOT gated by armed — in-recovery
	// fault decisions must replay too.
	armed bool

	// Record state.
	sch Schedule

	// Replay state.
	src      *Schedule
	cursor   int
	draws    map[string][]Draw
	floor    int32
	diverged bool
	divMsg   string
	watchdog time.Duration

	// divergedFlag mirrors diverged for lock-free reads on hot paths.
	divergedFlag atomic.Bool
}

// NewRecorder starts a recording session.
func NewRecorder() *Session {
	s := &Session{mode: ModeRecord, floor: NoActor}
	s.sch = Schedule{Version: ScheduleVersion, FailEpisode: -1}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// NewReplayer starts a replay session over a recorded schedule.
func NewReplayer(src *Schedule) *Session {
	s := &Session{mode: ModeReplay, src: src, floor: NoActor, watchdog: DefaultWatchdog}
	s.cond = sync.NewCond(&s.mu)
	s.draws = make(map[string][]Draw)
	for _, d := range src.Draws {
		s.draws[d.Key] = append(s.draws[d.Key], d)
	}
	return s
}

// SetWatchdog overrides the divergence timeout (replay only).
func (s *Session) SetWatchdog(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.mu.Lock()
	s.watchdog = d
	s.mu.Unlock()
}

// Recording reports whether s is an armed-capable recording session.
func (s *Session) Recording() bool { return s != nil && s.mode == ModeRecord }

// Replaying reports whether s replays a schedule.
func (s *Session) Replaying() bool { return s != nil && s.mode == ModeReplay }

// Arm opens the scheduled window: points are recorded/enforced until Disarm.
func (s *Session) Arm() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()
}

// Disarm closes the scheduled window and frees the floor.
func (s *Session) Disarm() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.armed = false
	s.floor = NoActor
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Point records (recording) or enforces (replay) one scheduling decision and
// returns its argument: the passed arg when recording or disarmed, the
// RECORDED arg when replaying. Replay blocks until this actor+site is at the
// schedule head and the floor is free, then holds the floor until the
// actor's next Point, Yield, or Exit.
func (s *Session) Point(actor int32, site string, arg int64) int64 {
	if s == nil {
		return arg
	}
	switch s.mode {
	case ModeRecord:
		return s.recordPoint(actor, site, arg)
	case ModeReplay:
		return s.await(actor, site, arg)
	}
	return arg
}

// recordPoint is the recording side of Point: release the floor, contend
// for it (the Go scheduler's choice of winner is the nondeterminism being
// captured), and append the point in floor-grant order.
//
// The release and the re-acquisition MUST be separate critical sections
// with a scheduler yield between them: if the releaser held s.mu across
// both, parked waiters could never take the freed floor before the
// releaser re-claimed it, every worker would run to completion unpreempted,
// and the recorder would only ever capture one coarse serial interleaving —
// in particular never the crash-between-check-and-fetch window of the
// lost-write race.
func (s *Session) recordPoint(actor int32, site string, arg int64) int64 {
	s.mu.Lock()
	if !s.armed {
		s.mu.Unlock()
		return arg
	}
	if s.floor == actor {
		s.floor = NoActor
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	runtime.Gosched()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.floor != NoActor && s.armed {
		s.cond.Wait()
	}
	if !s.armed {
		return arg
	}
	s.floor = actor
	s.sch.Points = append(s.sch.Points, Point{Actor: actor, Site: site, Arg: arg})
	return arg
}

// await is the replay side of Point.
func (s *Session) await(actor int32, site string, arg int64) int64 {
	if s.divergedFlag.Load() {
		return divergedArg(site, arg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return arg
	}
	// Hand back the floor before competing for the next token.
	if s.floor == actor {
		s.floor = NoActor
		s.cond.Broadcast()
	}
	deadline := time.Now().Add(s.watchdog)
	// The watchdog goroutine is spawned lazily, only if this await actually
	// blocks, and is reaped via done when the await returns.
	var watching bool
	done := make(chan struct{})
	defer close(done)
	for {
		if s.diverged || !s.armed {
			return divergedArg(site, arg)
		}
		if s.cursor >= len(s.src.Points) {
			s.divergeLocked(fmt.Sprintf("schedule exhausted: actor %d waiting at %q with all %d points consumed",
				actor, site, len(s.src.Points)))
			return divergedArg(site, arg)
		}
		head := s.src.Points[s.cursor]
		if head.Actor == actor && head.Site == site && s.floor == NoActor {
			if site == SiteFetch && head.Arg != arg {
				// Identifier sites must match exactly: fetching a different
				// page here means the replay's control flow already left the
				// recording — fail fast instead of corrupting downstream.
				s.divergeLocked(fmt.Sprintf("actor %d fetch of page %d where recording fetched page %d (point %d/%d)",
					actor, arg, head.Arg, s.cursor, len(s.src.Points)))
				return divergedArg(site, arg)
			}
			s.cursor++
			s.floor = actor
			s.cond.Broadcast()
			return head.Arg
		}
		if time.Now().After(deadline) {
			s.divergeLocked(fmt.Sprintf("watchdog: actor %d stuck at %q while schedule head is {actor %d, %q} (point %d/%d)",
				actor, site, head.Actor, head.Site, s.cursor, len(s.src.Points)))
			return divergedArg(site, arg)
		}
		if !watching {
			watching = true
			go func() {
				t := time.NewTimer(time.Until(deadline))
				defer t.Stop()
				select {
				case <-t.C:
					s.mu.Lock()
					s.cond.Broadcast()
					s.mu.Unlock()
				case <-done:
				}
			}()
		}
		s.cond.Wait()
	}
}

// divergedArg chooses the pass-through result after divergence: stop points
// answer "stop now" so the drained workers terminate instead of spinning on
// a wedged engine; everything else echoes the caller's arg.
func divergedArg(site string, arg int64) int64 {
	if site == SiteStop {
		return 1
	}
	return arg
}

// Yield releases the floor if the actor holds it, without consuming a point.
// The harness yields after its episode marker so the workers can run.
func (s *Session) Yield(actor int32) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.floor == actor {
		s.floor = NoActor
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Exit releases the floor at a worker's final return, letting the next
// scheduled actor run. Harmless when the actor does not hold it.
func (s *Session) Exit(actor int32) { s.Yield(actor) }

// divergeLocked marks the replay diverged and wakes every waiter. Called
// with s.mu held.
func (s *Session) divergeLocked(msg string) {
	if !s.diverged {
		s.diverged = true
		s.divMsg = msg
		s.divergedFlag.Store(true)
	}
	s.cond.Broadcast()
}

// Diverged reports whether the replay left the recorded schedule, and why.
func (s *Session) Diverged() (bool, string) {
	if s == nil {
		return false, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diverged, s.divMsg
}

// Draw records (recording) or replays one fault-injector outcome for the
// keyed site. When recording, draw() computes the real outcome from the
// injector's PRNG and is recorded; when replaying, the next recorded outcome
// for the key is returned WITHOUT calling draw(), and an exhausted key
// yields a quiet no-fire. Draws are not gated by Arm: in-recovery fault
// decisions replay too.
func (s *Session) Draw(key string, draw func() Draw) Draw {
	if s == nil {
		return draw()
	}
	switch s.mode {
	case ModeRecord:
		d := draw()
		d.Key = key
		s.mu.Lock()
		s.sch.Draws = append(s.sch.Draws, d)
		s.mu.Unlock()
		return d
	case ModeReplay:
		s.mu.Lock()
		defer s.mu.Unlock()
		q := s.draws[key]
		if len(q) == 0 {
			return Draw{Key: key}
		}
		d := q[0]
		s.draws[key] = q[1:]
		return d
	}
	return draw()
}

// Note appends a record-only annotation; no-op on replay. Safe to call from
// machine hooks (it takes only the session mutex).
func (s *Session) Note(actor int32, site string, arg int64) {
	if s == nil || s.mode != ModeRecord {
		return
	}
	s.mu.Lock()
	if s.armed {
		s.sch.Notes = append(s.sch.Notes, Note{Actor: actor, Site: site, Arg: arg})
	}
	s.mu.Unlock()
}

// BeginEpisode marks an episode boundary: records (or awaits) the episode
// point and registers the derived seed. orig is the episode's original index
// in the run that first recorded it; seed the derived per-episode spec seed.
// On replay it returns the RECORDED original index (callers must derive the
// episode seed from it).
func (s *Session) BeginEpisode(orig int, seed int64) int {
	if s == nil {
		return orig
	}
	if s.mode == ModeRecord {
		s.mu.Lock()
		s.sch.Episodes = append(s.sch.Episodes, orig)
		s.sch.EpisodeSeeds = append(s.sch.EpisodeSeeds, seed)
		s.mu.Unlock()
	}
	got := s.Point(HarnessActor, SiteEpisode, int64(orig))
	s.Yield(HarnessActor)
	return int(got)
}

// EpisodePoints returns how many episode markers the replay schedule holds.
func (s *Session) EpisodePoints() int {
	if s == nil || s.src == nil {
		return 0
	}
	n := 0
	for _, p := range s.src.Points {
		if p.Site == SiteEpisode {
			n++
		}
	}
	return n
}

// NoteFailure records the first violating episode (original index) and its
// derived seed into the schedule being recorded.
func (s *Session) NoteFailure(origEp int, seed int64) {
	if s == nil || s.mode != ModeRecord {
		return
	}
	s.mu.Lock()
	if s.sch.FailEpisode < 0 {
		s.sch.FailEpisode = origEp
		s.sch.FailSeed = seed
	}
	s.mu.Unlock()
}

// SetRunInfo stamps run-identifying metadata on the schedule being recorded.
func (s *Session) SetRunInfo(seed, faultSeed int64, protocol string, nodes int) {
	if s == nil || s.mode != ModeRecord {
		return
	}
	s.mu.Lock()
	s.sch.Seed = seed
	s.sch.FaultSeed = faultSeed
	s.sch.Protocol = protocol
	s.sch.Nodes = nodes
	s.mu.Unlock()
}

// SetSpec stamps the recorded run's workload/injector shape.
func (s *Session) SetSpec(rs RunSpec) {
	if s == nil || s.mode != ModeRecord {
		return
	}
	s.mu.Lock()
	s.sch.Spec = &rs
	s.mu.Unlock()
}

// Schedule returns a snapshot of the recorded schedule (recording sessions),
// or the source schedule being replayed.
func (s *Session) Schedule() *Schedule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == ModeReplay {
		return s.src
	}
	cp := s.sch
	cp.Points = append([]Point(nil), s.sch.Points...)
	cp.Draws = append([]Draw(nil), s.sch.Draws...)
	cp.Notes = append([]Note(nil), s.sch.Notes...)
	cp.Episodes = append([]int(nil), s.sch.Episodes...)
	cp.EpisodeSeeds = append([]int64(nil), s.sch.EpisodeSeeds...)
	return &cp
}
