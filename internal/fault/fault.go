// Package fault is a deterministic, seeded fault-injection engine for the
// shared-memory database. It decides — from a single PRNG stream, so every
// schedule is reproducible from its seed — when to fire the failure modes
// the paper's protocols must survive:
//
//   - a node crash at the precise instant a cache line migrates, downgrades,
//     or is invalidated (the LBM hazard windows of section 3.2);
//   - a node crash between an update's log append and its in-place slot
//     write (inside the line-lock critical section);
//   - a log force torn mid-write, leaving a partial record on the stable
//     log device (the torn-tail problem);
//   - a node crash during restart recovery itself, including the
//     coordinator node (recovery must re-elect and re-enter);
//   - transient disk / log-device I/O errors, bounded per site so the
//     callers' retry policies always terminate.
//
// The injector itself is pure decision logic: it holds no references to the
// engine. The machine, storage, wal, and recovery layers consult it through
// narrow hooks (machine.SetTransitionFault, storage.SetFault, and the
// recovery layer's crash/torn-force call sites), so a nil or disarmed
// injector costs one pointer test.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"smdb/internal/machine"
	"smdb/internal/sched"
	"smdb/internal/storage"
)

// Plan parameterizes one chaos schedule. All probabilities are per
// opportunity (per coherency transition, per logged update, per force, per
// recovery phase boundary, per storage operation).
type Plan struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// PCrashAtMigration crashes the node losing a line exactly at a
	// migrate/downgrade/invalidate transition.
	PCrashAtMigration float64
	// PCrashAtUpdate crashes the updating node between its log append and
	// its in-place slot write.
	PCrashAtUpdate float64
	// PTornForce interrupts a log force mid-write: only a prefix of the
	// buffer reaches the stable device, and the forcing node crashes.
	PTornForce float64
	// PCrashInRecovery crashes a node at a restart-recovery phase boundary.
	PCrashInRecovery float64
	// PCoordinatorCrash is, given an in-recovery crash fires, the
	// probability that the victim is the recovery coordinator itself.
	PCoordinatorCrash float64
	// PIOError makes a disk or log-device operation fail with
	// storage.ErrTransient.
	PIOError float64
	// IOErrorBurst bounds consecutive transient errors per site (default 2),
	// so callers' bounded retries always eventually succeed.
	IOErrorBurst int
	// MaxCrashes is the crash budget per episode (default 1). It bounds
	// cascading failures and guarantees recovery terminates.
	MaxCrashes int
	// MinAlive is the floor of live nodes below which no crash fires
	// (default 1: the machine always keeps a survivor).
	MinAlive int
}

func (p *Plan) setDefaults() {
	if p.IOErrorBurst == 0 {
		p.IOErrorBurst = 2
	}
	if p.MaxCrashes == 0 {
		p.MaxCrashes = 1
	}
	if p.MinAlive == 0 {
		p.MinAlive = 1
	}
}

// Firing records one fault decision, for reproducibility reports.
type Firing struct {
	Site string
	Node machine.NodeID
}

// Stats counts the faults an injector has fired.
type Stats struct {
	// Crashes counts injected node crashes of every flavour (migration,
	// update, torn force, in-recovery).
	Crashes int
	// TornForces counts forces torn mid-write.
	TornForces int
	// RecoveryCrashes counts crashes fired at recovery phase boundaries
	// (a subset of Crashes).
	RecoveryCrashes int
	// IOErrors counts transient I/O errors injected.
	IOErrors int
}

// Injector is a seeded fault-decision engine. It is safe for concurrent use;
// the shared PRNG stream is serialized by a mutex, so the *set* of faults a
// concurrent run draws is seed-determined even though their interleaving is
// scheduler-dependent.
type Injector struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	armed bool
	// inRecovery suppresses the workload-time faults (migration, update,
	// torn force) while restart recovery runs; in-recovery crashes and I/O
	// errors stay live.
	inRecovery bool
	// crashes spent against the episode's MaxCrashes budget.
	crashes int
	burst   map[string]int
	firings []Firing
	stats   Stats
	// sched, when non-nil, records or replays every PRNG outcome at a keyed
	// decision site (see SetSched). Nil costs one pointer test per decision.
	sched *sched.Session
}

// New builds an injector for the given plan. The injector starts disarmed.
func New(plan Plan) *Injector {
	plan.setDefaults()
	return &Injector{
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		burst: make(map[string]int),
	}
}

// SetSched attaches (or, with nil, detaches) a chaos schedule session. When
// recording, every decision's PRNG outcome is appended to the schedule at a
// keyed site; when replaying, decisions consume the recorded outcomes and
// never touch the PRNG — so a replayed run fires exactly the recorded
// faults (same victims, same torn fractions) regardless of timing.
func (in *Injector) SetSched(s *sched.Session) {
	in.mu.Lock()
	in.sched = s
	in.mu.Unlock()
}

// Plan returns the (defaulted) plan.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

// Arm enables fault firing; Disarm stops it (decision state is retained).
func (in *Injector) Arm() {
	in.mu.Lock()
	in.armed = true
	in.mu.Unlock()
}

// Disarm stops fault firing.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.armed = false
	in.mu.Unlock()
}

// BeginRecovery suppresses workload-time faults while restart recovery runs
// (in-recovery crashes and I/O errors remain live). EndRecovery reverses it.
func (in *Injector) BeginRecovery() {
	in.mu.Lock()
	in.inRecovery = true
	in.mu.Unlock()
}

// EndRecovery re-enables workload-time faults.
func (in *Injector) EndRecovery() {
	in.mu.Lock()
	in.inRecovery = false
	in.mu.Unlock()
}

// ResetEpisode refills the crash budget and clears I/O burst state for the
// next crash/recover episode. The PRNG stream continues, so successive
// episodes of one seeded run draw distinct but reproducible schedules.
func (in *Injector) ResetEpisode() {
	in.mu.Lock()
	in.crashes = 0
	in.burst = make(map[string]int)
	in.mu.Unlock()
}

// Firings returns the fault decisions fired so far.
func (in *Injector) Firings() []Firing {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Firing(nil), in.firings...)
}

// Stats returns the cumulative fault counts.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// crashBudgetLocked reports whether another crash may fire with `alive` live
// nodes. Called with in.mu held.
func (in *Injector) crashBudgetLocked(alive int) bool {
	return in.crashes < in.plan.MaxCrashes && alive > in.plan.MinAlive
}

// drawAt makes the decision draw at the site named site followed by node
// nd. The site's name is a schedule key, so it is built only when a session
// records or replays the draw; without one, a draw formats nothing and
// allocates nothing. Called with in.mu held.
func (in *Injector) drawAt(site string, nd machine.NodeID, draw func() sched.Draw) sched.Draw {
	if in.sched == nil {
		return draw()
	}
	return in.sched.Draw(site+strconv.Itoa(int(nd)), draw)
}

// CrashAtMigration decides whether the coherency transition ev crashes the
// node losing the line (ev.From), at exactly that instant. It is wired into
// the machine's transition-fault hook and runs with the machine lock held.
func (in *Injector) CrashAtMigration(ev machine.Event, alive int) []machine.NodeID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.inRecovery || ev.From < 0 || !in.crashBudgetLocked(alive) {
		return nil
	}
	d := in.drawAt("migrate:", ev.From, func() sched.Draw {
		return sched.Draw{Fire: in.rng.Float64() < in.plan.PCrashAtMigration}
	})
	if !d.Fire {
		return nil
	}
	in.crashes++
	in.stats.Crashes++
	in.firings = append(in.firings, Firing{Site: "coherency:" + ev.Kind.String(), Node: ev.From})
	return []machine.NodeID{ev.From}
}

// CrashAtUpdate decides whether node nd crashes between an update's log
// append and its slot write.
func (in *Injector) CrashAtUpdate(nd machine.NodeID, alive int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.inRecovery || !in.crashBudgetLocked(alive) {
		return false
	}
	d := in.drawAt("update:", nd, func() sched.Draw {
		return sched.Draw{Fire: in.rng.Float64() < in.plan.PCrashAtUpdate}
	})
	if !d.Fire {
		return false
	}
	in.crashes++
	in.stats.Crashes++
	in.firings = append(in.firings, Firing{Site: "update", Node: nd})
	return true
}

// TornForce decides whether node nd's log force is torn mid-write. The
// returned fraction (in (0,1)) is how much of the force buffer reaches the
// device before the node dies.
func (in *Injector) TornForce(nd machine.NodeID, alive int) (frac float64, fire bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.inRecovery || !in.crashBudgetLocked(alive) {
		return 0, false
	}
	d := in.drawAt("torn:", nd, func() sched.Draw {
		if in.rng.Float64() >= in.plan.PTornForce {
			return sched.Draw{}
		}
		return sched.Draw{Fire: true, Frac: 0.1 + 0.8*in.rng.Float64()}
	})
	if !d.Fire {
		return 0, false
	}
	in.crashes++
	in.stats.Crashes++
	in.stats.TornForces++
	in.firings = append(in.firings, Firing{Site: "torn-force", Node: nd})
	return d.Frac, true
}

// CrashInRecovery decides whether a node crashes at a restart-recovery phase
// boundary. With probability PCoordinatorCrash the victim is the coordinator
// itself; otherwise a uniformly chosen other survivor.
func (in *Injector) CrashInRecovery(phase string, coord machine.NodeID, alive []machine.NodeID) []machine.NodeID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || !in.crashBudgetLocked(len(alive)) {
		return nil
	}
	d := in.sched.Draw("recovery:"+phase, func() sched.Draw {
		if in.rng.Float64() >= in.plan.PCrashInRecovery {
			return sched.Draw{}
		}
		victim := coord
		if in.rng.Float64() >= in.plan.PCoordinatorCrash {
			var others []machine.NodeID
			for _, n := range alive {
				if n != coord {
					others = append(others, n)
				}
			}
			if len(others) > 0 {
				victim = others[in.rng.Intn(len(others))]
			}
		}
		return sched.Draw{Fire: true, Node: int32(victim)}
	})
	if !d.Fire {
		return nil
	}
	victim := machine.NodeID(d.Node)
	in.crashes++
	in.stats.Crashes++
	in.stats.RecoveryCrashes++
	in.firings = append(in.firings, Firing{Site: "recovery:" + phase, Node: victim})
	return []machine.NodeID{victim}
}

// IOError decides whether a storage operation at the given site fails with a
// transient error. Consecutive failures per site are bounded by IOErrorBurst,
// so any retry policy with more attempts than the burst always succeeds.
func (in *Injector) IOError(site string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.plan.PIOError <= 0 {
		return nil
	}
	if in.burst[site] >= in.plan.IOErrorBurst {
		in.burst[site] = 0
		return nil
	}
	d := in.sched.Draw("io:"+site, func() sched.Draw {
		return sched.Draw{Fire: in.rng.Float64() < in.plan.PIOError}
	})
	if !d.Fire {
		in.burst[site] = 0
		return nil
	}
	in.burst[site]++
	in.stats.IOErrors++
	return fmt.Errorf("fault: injected at %s: %w", site, storage.ErrTransient)
}
