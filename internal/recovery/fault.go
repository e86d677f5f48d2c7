package recovery

import (
	"errors"
	"fmt"
	"sync/atomic"

	"smdb/internal/fault"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/deps"
	"smdb/internal/wal"
)

// ErrRecoveryInterrupted marks a restart-recovery run cut short by a further
// node crash (possibly of the recovery coordinator itself). Recover retries
// internally; the error surfaces only if the retry budget is exhausted.
var ErrRecoveryInterrupted = errors.New("recovery: interrupted by a crash during recovery")

// AttachFaults wires a fault injector through every layer that can fail:
// coherency transitions (machine), the stable database (disk), and each
// node's stable log device. Passing nil detaches everywhere. The injector
// decides; the engine executes — crashes fired by the machine hook take the
// victim down atomically with the transition, while I/O errors surface as
// storage.ErrTransient to the callers' bounded retries.
func (db *DB) AttachFaults(inj *fault.Injector) {
	db.fault.Store(inj)
	if inj == nil {
		db.M.SetTransitionFault(nil)
		db.Disk.SetFault(nil)
		for _, l := range db.Logs {
			l.Device().SetFault(nil)
		}
		return
	}
	db.M.SetTransitionFault(func(ev machine.Event, alive int) []machine.NodeID {
		// Only database lines are LBM hazard windows (section 3.2): a
		// lock-table or directory line carries no uncommitted slot data,
		// so its transitions draw no crash decision.
		if !db.Store.Contains(ev.Line) {
			return nil
		}
		return inj.CrashAtMigration(ev, alive)
	})
	db.Disk.SetFault(func(op string) error { return inj.IOError("disk:" + op) })
	for _, l := range db.Logs {
		site := fmt.Sprintf("log%d:", l.Node())
		l.Device().SetFault(func(op string) error { return inj.IOError(site + op) })
	}
}

// injector returns the attached fault injector (nil when chaos is off).
func (db *DB) injector() *fault.Injector { return db.fault.Load() }

// aliveCount returns the number of live nodes (the injector's crash-floor
// input).
func (db *DB) aliveCount() int { return len(db.M.AliveNodes()) }

// noteCrash is the machine's crash-notify callback: it runs with the machine
// lock held at the tail of every Crash that actually took nodes down —
// whether requested by an experiment or injected mid-transition — and
// destroys the DB-layer state that lives in the crashed nodes' failure
// domains: volatile log tails, WAL-table columns, and transaction control
// state. Running under the machine lock makes the destruction atomic with
// the crash itself: no goroutine can observe a dead node with a live log
// tail. It must only call back into the machine via lock-free methods
// (Clock/MaxClock).
func (db *DB) noteCrash(rep machine.CrashReport) {
	db.frozen.Store(true)
	// Remember when the first crash of this failure episode happened, so
	// Recover can report the freeze span (crash-to-recovery-start).
	db.crashSim.CompareAndSwap(0, db.M.MaxClock())
	for _, n := range rep.Crashed {
		db.Logs[n].Crash()
		db.BM.DropNode(n)
	}
	// Collect the newly crash-victimized transactions while marking them:
	// the residency model needs the engine's own victim census (see the
	// verdict-presence barrier in deps.NoteCrash) — its usual registration
	// path, the KindTxnBegin event, is emitted outside the node's mutex and
	// can lose the race against a crash landing right after Begin registered
	// the transaction here. Begin registers under the same mutex, so a
	// transaction is either in this census or begins on a node already down.
	var victims []deps.TxnRef
	for _, n := range rep.Crashed {
		nc := &db.nodes[n]
		nc.mu.Lock()
		nc.each(func(st *txnState) {
			if st.live() {
				st.crashed.Store(true)
				victims = append(victims, deps.TxnRef{ID: int64(st.id), Node: int32(n)})
			}
		})
		nc.mu.Unlock()
	}
	hk := db.hk.Load()
	if m := hk.Model(); m != nil {
		// The model settles who was caught where at the exact crash
		// instant: the explainer's verdicts are computed against it and the
		// auditor suspends LBM checks for the recovery window. Like
		// everything in this callback it must not call back into the
		// machine (the machine lock is held).
		crashed := make([]int32, len(rep.Crashed))
		for i, n := range rep.Crashed {
			crashed[i] = int32(n)
		}
		lost := make([]int32, len(rep.LostLines))
		for i, l := range rep.LostLines {
			lost[i] = int32(l)
		}
		m.NoteCrash(crashed, lost, victims, db.M.MaxClock())
	}
	if hk.Flight != nil {
		// No file I/O under the machine lock: Recover writes the dump.
		db.flightPending.Store(true)
	}
}

// forceThrough forces node nd's log through lsn for transaction t, charging
// simulated force latency and the caller's counter on a physical force; the
// latency is t's log-force wait (none when the LSN was already stable: only
// real stalls appear in its waterfall). Under an armed injector
// the force can be torn mid-write: only a prefix of the buffer reaches the
// stable device and the forcing node dies at that instant, leaving a partial
// record for restart to truncate. The returned error wraps
// machine.ErrNodeDown so commit paths report the interruption exactly like
// any other crash-out.
func (db *DB) forceThrough(nd machine.NodeID, t wal.TxnID, lsn wal.LSN, count *atomic.Int64) error {
	if inj := db.injector(); inj != nil {
		if frac, fire := inj.TornForce(nd, db.aliveCount()); fire {
			db.Logs[nd].ForceTorn(lsn, frac)
			db.M.Crash(nd)
			return fmt.Errorf("recovery: log force on node %d torn by crash: %w", nd, machine.ErrNodeDown)
		}
	}
	if _, forced := db.Logs[nd].Force(lsn); forced {
		cost := db.logForceCost()
		start := db.M.Clock(nd)
		db.M.AdvanceClock(nd, cost)
		count.Add(1)
		db.hk.Load().Observer.ObserveLogForce(cost)
		db.Wait(nd, t, obs.CauseLogForce, start, int64(lsn))
	}
	return nil
}

// faultAtPhase gives the injector a shot at crashing a node — possibly the
// coordinator — at a restart-recovery phase boundary. A firing crashes the
// victims immediately and returns ErrRecoveryInterrupted, sending Recover
// back around its retry loop with a freshly elected coordinator.
func (db *DB) faultAtPhase(p obs.Phase) error {
	inj := db.injector()
	if inj == nil {
		return nil
	}
	alive := db.M.AliveNodes()
	if len(alive) == 0 {
		return fmt.Errorf("recovery: no surviving nodes")
	}
	victims := inj.CrashInRecovery(p.String(), alive[0], alive)
	if len(victims) == 0 {
		return nil
	}
	db.M.Crash(victims...)
	return fmt.Errorf("recovery: nodes %v crashed during %v: %w", victims, p, ErrRecoveryInterrupted)
}

// recoverableErr reports whether a mid-recovery error should send Recover
// around its retry loop rather than fail the run: a node (maybe the
// coordinator) died under recovery's feet, or a line recovery was touching
// was destroyed by that crash.
func recoverableErr(err error) bool {
	return errors.Is(err, ErrRecoveryInterrupted) ||
		errors.Is(err, machine.ErrNodeDown) ||
		errors.Is(err, machine.ErrLineLost)
}
