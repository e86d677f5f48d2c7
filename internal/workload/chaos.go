package workload

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"smdb/internal/fault"
	"smdb/internal/machine"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/deps"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/wal"
)

// RunChaos drives seeded crash/recover episodes: each episode runs the
// concurrent workload with the fault injector armed, waits for an injected
// failure (crashing a node itself if the schedule fired none), runs restart
// recovery with faults still live — so recovery must survive coordinator
// crashes and flaky I/O — and then asserts the IFA checker before restarting
// the dead nodes for the next episode. The injector's single PRNG stream
// makes the fault schedule reproducible from its seed.

// ChaosResult aggregates one seeded chaos run.
type ChaosResult struct {
	Seed     int64
	Episodes int
	// Fault-side counts, from the injector.
	CrashesInjected, TornForces, RecoveryCrashes, IOErrors int
	// ForcedCrashes counts episodes where the schedule fired nothing and
	// the harness crashed a node itself so recovery still ran.
	ForcedCrashes int
	// Recovery-side counts, summed over episodes.
	RecoveryAttempts, CoordinatorFailovers int
	// Workload-side counts, summed over episodes.
	Committed, Aborted int
	// Violations holds every IFA-checker complaint, prefixed with its
	// episode (empty = the protocol survived the whole schedule).
	Violations []string
	// Explainer cross-check, populated when a dependency tracker is
	// attached (the hook set's Deps): Verdicts counts IFA-explainer verdicts
	// consumed, DoomedVerdicts the survivor verdicts predicting an unlogged
	// lost update (the no-LBM hazard; structurally impossible under real
	// protocols), and ExplainMismatches every disagreement between the
	// explainer and the IFA checker — recovery aborts with no crashed-node
	// verdict, doomed predictions under an IFA protocol, or checker-found
	// survivor losses the explainer missed.
	Verdicts, DoomedVerdicts int
	ExplainMismatches        []string
	// Online-auditor census, populated when an auditor is attached
	// (the hook set's Audit): AuditViolations counts the typed LBM violations the
	// auditor raised *during* the workload, AuditAnomalies the time-series
	// watchdog's findings. Auditor/checker disagreements (a violation under
	// an IFA protocol, or a checker-confirmed lost update the auditor never
	// saw exposed) are folded into ExplainMismatches.
	AuditViolations, AuditAnomalies int
}

func (r ChaosResult) String() string {
	s := fmt.Sprintf("seed=%d episodes=%d crashes=%d (forced=%d) torn=%d recoveryCrashes=%d ioErrors=%d attempts=%d failovers=%d committed=%d aborted=%d violations=%d",
		r.Seed, r.Episodes, r.CrashesInjected, r.ForcedCrashes, r.TornForces,
		r.RecoveryCrashes, r.IOErrors, r.RecoveryAttempts, r.CoordinatorFailovers,
		r.Committed, r.Aborted, len(r.Violations))
	if r.Verdicts > 0 {
		s += fmt.Sprintf(" verdicts=%d doomed=%d mismatches=%d",
			r.Verdicts, r.DoomedVerdicts, len(r.ExplainMismatches))
	}
	if r.AuditViolations > 0 || r.AuditAnomalies > 0 {
		s += fmt.Sprintf(" auditViolations=%d auditAnomalies=%d",
			r.AuditViolations, r.AuditAnomalies)
	}
	return s
}

// chaosDownNodes lists the currently dead nodes.
func chaosDownNodes(db *recovery.DB) []machine.NodeID {
	var out []machine.NodeID
	for n := machine.NodeID(0); int(n) < db.M.Nodes(); n++ {
		if !db.M.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// wedgeDeadline is how long an episode may run without a crash or completion
// before the harness calls it wedged.
const wedgeDeadline = 10 * time.Second

// ErrScheduleDiverged reports that a replayed chaos run's control flow left
// the recorded schedule (typical for shrink candidates whose dropped
// decisions change the interleaving). The run's results are meaningless.
var ErrScheduleDiverged = fmt.Errorf("workload: chaos replay diverged from recorded schedule")

// RunChaos seeds the database, then runs `episodes` crash/recover episodes
// of spec under the injector's fault schedule. It returns the aggregate
// result; the error is non-nil only for harness failures (a wedged episode
// or an unrecoverable engine error), never for IFA violations — those are
// reported in the result so callers (and the -broken negative control) can
// assert either way.
func RunChaos(db *recovery.DB, inj *fault.Injector, spec Spec, episodes int) (ChaosResult, error) {
	return RunChaosSession(db, inj, spec, episodes, nil)
}

// RunChaosSession is RunChaos under an optional schedule session: a
// recording session captures every nondeterministic decision of the run
// into a sched.Schedule; a replaying session re-executes a recorded one
// deterministically (episodes then comes from the schedule, and the
// episode count argument is ignored). A nil session is plain RunChaos.
func RunChaosSession(db *recovery.DB, inj *fault.Injector, spec Spec, episodes int, sess *sched.Session) (ChaosResult, error) {
	res := ChaosResult{Seed: inj.Plan().Seed}
	if sess.Replaying() {
		episodes = sess.EpisodePoints()
	}
	if err := Seed(db, spec.HeapPages); err != nil {
		return res, fmt.Errorf("workload: chaos seeding: %w", err)
	}
	if sess != nil {
		sess.SetRunInfo(spec.Seed, inj.Plan().Seed, db.Cfg.Protocol.String(), db.M.Nodes())
		ds := spec
		ds.setDefaults()
		plan := inj.Plan()
		sess.SetSpec(sched.RunSpec{
			TxnsPerNode:       ds.TxnsPerNode,
			OpsPerTxn:         ds.OpsPerTxn,
			ReadFraction:      ds.ReadFraction,
			SharingFraction:   ds.SharingFraction,
			HotSpot:           ds.HotSpot,
			HotProb:           ds.HotProb,
			AbortFraction:     ds.AbortFraction,
			HeapPages:         ds.HeapPages,
			MaxCrashes:        plan.MaxCrashes,
			MinAlive:          plan.MinAlive,
			IOErrorBurst:      plan.IOErrorBurst,
			PIOError:          plan.PIOError,
			AblateInstallGate: !db.M.InstallGated(),
		})
		db.AttachSched(sess)
		defer db.AttachSched(nil)
		inj.SetSched(sess)
		defer inj.SetSched(nil)
		defer sess.Disarm()
		// Every flight dump taken during this run (IFA violations above all)
		// carries the schedule as recorded so far — including the failing
		// episode's index and derived seed — so the dump is its own repro.
		if fr := db.Hooks().Flight; fr != nil {
			fr.SetAux("schedule.json", func(w io.Writer) error {
				return sess.Schedule().WriteJSON(w)
			})
			defer fr.SetAux("schedule.json", nil)
		}
	}
	db.AttachFaults(inj)
	defer db.AttachFaults(nil)
	defer inj.Disarm()

	prevAuditViol := 0
	// abandoned holds the transactions the deferred-logging control could not
	// roll back: deadlock victims of this episode's workers, and every
	// earlier episode's stranded transactions. They stay active for good.
	abandoned := make(map[wal.TxnID]bool)
	for ep := 0; ep < episodes; ep++ {
		res.Episodes++
		// Episodes carry their ORIGINAL index (and thus their derived seed)
		// through the schedule, so a shrunk schedule that drops episodes
		// still replays the survivors with the right per-episode seeds.
		epOrig := ep
		epSpec := spec
		inj.ResetEpisode()
		inj.Arm()
		if sess != nil {
			sess.Arm()
			epOrig = sess.BeginEpisode(ep, spec.Seed+int64(ep)*9973)
		}
		epSpec.Seed = spec.Seed + int64(epOrig)*9973
		runner := NewRunner(db, epSpec)
		runner.Sched = sess

		type runOut struct {
			res Result
			err error
		}
		stop := make(chan struct{})
		out := make(chan runOut, 1)
		go func() {
			r, err := runner.RunConcurrent(stop)
			out <- runOut{r, err}
		}()

		// Wait for a fault to freeze the system, or for the workload to
		// drain without one. A replay needs no polling: the workers' stop
		// observations come from the schedule, so they terminate on their
		// own at exactly the recorded steps.
		var ro runOut
		if sess.Replaying() {
			ro = <-out
			close(stop)
		} else {
			got := false
			deadline := time.Now().Add(wedgeDeadline)
			for !got && !db.Frozen() {
				select {
				case ro = <-out:
					got = true
				case <-time.After(200 * time.Microsecond):
					if time.Now().After(deadline) {
						// Gather the evidence while the workers still stand
						// where they wedged (and without the reads drawing injected
						// faults); stopped, they return within a retry.
						inj.Disarm()
						evidence := wedgeEvidence(db, epOrig, runner.LiveWorkers())
						close(stop)
						// If one of them failed, that error — not the timeout
						// it led to — is the finding.
						select {
						case ro = <-out:
							if ro.err != nil {
								return res, fmt.Errorf("workload: chaos episode %d (seed %d) wedged after a worker failed: %w\n%s", epOrig, epSpec.Seed, ro.err, evidence)
							}
						case <-time.After(time.Second):
						}
						return res, fmt.Errorf("workload: chaos episode %d (seed %d) wedged (no crash, no completion)\n%s", epOrig, epSpec.Seed, evidence)
					}
				}
			}
			close(stop)
			if !got {
				ro = <-out
			}
		}
		// The workers are gone; the harness phase (recovery, rollback,
		// checking) below must run unscheduled.
		sess.Disarm()
		if d, msg := sess.Diverged(); d {
			return res, fmt.Errorf("%w: %s", ErrScheduleDiverged, msg)
		}
		if ro.err != nil && !db.Cfg.Protocol.DeferredLogging() {
			// The deferred-logging negative control legitimately fails
			// mid-workload (it cannot abort); real protocols must not.
			return res, fmt.Errorf("workload: chaos episode %d (seed %d): %w", epOrig, epSpec.Seed, ro.err)
		}
		res.Committed += ro.res.Committed
		res.Aborted += ro.res.Aborted
		for _, t := range runner.Abandoned() {
			abandoned[t] = true
		}

		// If the schedule fired no crash this episode, crash a node
		// ourselves — every episode must exercise recovery.
		if !db.Frozen() {
			alive := db.M.AliveNodes()
			if len(alive) > 1 {
				db.Crash(alive[len(alive)-1])
				res.ForcedCrashes++
			} else {
				inj.Disarm()
				continue
			}
		}

		down := chaosDownNodes(db)
		rep, err := db.Recover(down)
		if err != nil {
			return res, fmt.Errorf("workload: chaos episode %d (seed %d) recovery: %w", epOrig, epSpec.Seed, err)
		}
		res.RecoveryAttempts += rep.Attempts
		res.CoordinatorFailovers += rep.CoordinatorFailovers

		// The checker must not draw injected I/O errors, and the stranded-
		// transaction cleanup below is harness bookkeeping, not workload.
		inj.Disarm()

		// Recovery rightly leaves the survivors' in-flight transactions
		// alone — that is the point of isolated failure atomicity — but the
		// interrupted workload's worker goroutines are gone, so nobody will
		// ever finish them, and under strict 2PL their locks would starve
		// every later episode. Roll them back; the deferred-logging negative
		// control cannot (it logged no undo information), so it only sheds
		// their locks. Either way the engine's end-of-transaction takes every
		// lock they hold and the request a stopped worker left queued.
		stranded := make(map[wal.TxnID]bool)
		for _, t := range db.ActiveTxns(machine.NoNode) {
			nd := t.Node()
			if !db.M.Alive(nd) {
				continue
			}
			stranded[t] = true
			err := db.Abort(nd, t)
			if err != nil && db.Cfg.Protocol.DeferredLogging() {
				err = db.ReleaseLocks(t)
			}
			if err != nil {
				return res, fmt.Errorf("workload: chaos episode %d (seed %d) rollback of stranded %v: %w", epOrig, epSpec.Seed, t, err)
			}
		}

		coord := db.M.AliveNodes()[0]
		epViolations := db.CheckIFA(coord)
		for _, v := range epViolations {
			res.Violations = append(res.Violations, fmt.Sprintf("episode %d: %s", epOrig, v))
		}
		crossCheckExplainer(db, rep, epViolations, abandoned, epOrig, &res)
		if db.Cfg.Protocol.DeferredLogging() {
			for t := range stranded {
				abandoned[t] = true
			}
		}
		prevAuditViol = crossCheckAuditor(db, epViolations, epOrig, prevAuditViol, &res)
		if len(epViolations) > 0 {
			// Stamp the failing episode (and its derived seed) into the
			// schedule being recorded, so the violation dump below — and the
			// schedule file itself — carries its own repro coordinates.
			sess.NoteFailure(epOrig, epSpec.Seed)
			// A checker violation is exactly what the flight recorder exists
			// for: preserve the evidence before the episode state is reset.
			_, _ = db.DumpFlight(fmt.Sprintf("ifa-violation-ep%d", epOrig))
		}
		for _, n := range chaosDownNodes(db) {
			if err := db.RestartNode(n); err != nil {
				return res, fmt.Errorf("workload: chaos episode %d (seed %d) restart of node %d: %w", epOrig, epSpec.Seed, n, err)
			}
		}
	}

	st := inj.Stats()
	res.CrashesInjected = st.Crashes
	res.TornForces = st.TornForces
	res.RecoveryCrashes = st.RecoveryCrashes
	res.IOErrors = st.IOErrors
	if a := db.Hooks().Audit; a != nil {
		sum := a.Summary()
		res.AuditViolations = sum.Violations
		res.AuditAnomalies = sum.Anomalies
	}
	return res, nil
}

// wedgeEvidence gathers what diagnosing a wedged episode takes — every
// lock-table row somebody waits on, the deadlock detector's verdict, what
// each active transaction holds and has queued, how many workers are still
// running, and every goroutine's stack — and returns what the wedge error
// should carry: the report itself, or, with a flight recorder attached, the
// path of the dump that holds it as wedge.txt.
func wedgeEvidence(db *recovery.DB, ep, workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live workers: %d\n", workers)
	if alive := db.M.AliveNodes(); len(alive) > 0 {
		snap, err := db.Locks.Snapshot(alive[0])
		if err != nil {
			fmt.Fprintf(&b, "lock table unreadable: %v\n", err)
		}
		for _, ls := range snap {
			if len(ls.Waiters) > 0 {
				fmt.Fprintf(&b, "lock %v: holders %v waiters %v\n", ls.Name, ls.Holders, ls.Waiters)
			}
		}
		victim, err := db.Locks.FindDeadlock(alive[0])
		fmt.Fprintf(&b, "FindDeadlock: victim %v, err %v\n", victim, err)
	}
	for _, t := range db.ActiveTxns(machine.NoNode) {
		held, queued := db.TxnLocks(t)
		fmt.Fprintf(&b, "%v: holds %v, queued %v\n", t, held, queued)
	}
	stacks := make([]byte, 1<<20)
	b.Write(stacks[:runtime.Stack(stacks, true)])
	report := b.String()
	if fr := db.Hooks().Flight; fr != nil {
		fr.SetAux("wedge.txt", func(w io.Writer) error {
			_, err := io.WriteString(w, report)
			return err
		})
		dir, err := db.DumpFlight(fmt.Sprintf("wedge-ep%d", ep))
		fr.SetAux("wedge.txt", nil)
		if err == nil && dir != "" {
			return "evidence: " + dir
		}
	}
	return report
}

// crossCheckAuditor reconciles the online IFA auditor's typed violations —
// raised at exposure instants, while the workload runs — against the
// crash-time ground truth, and returns the new cumulative violation count.
// The two monitors approach the same invariant from opposite ends: the
// auditor flags the cause (a dirty line leaving its writer's failure domain
// without log coverage), the checker the effect (an update actually lost).
// No-op when no auditor is attached.
func crossCheckAuditor(db *recovery.DB, violations []string, ep, prev int, res *ChaosResult) int {
	a := db.Hooks().Audit
	if a == nil {
		return prev
	}
	sum := a.Summary()
	mism := func(format string, args ...any) {
		res.ExplainMismatches = append(res.ExplainMismatches,
			fmt.Sprintf("episode %d: ", ep)+fmt.Sprintf(format, args...))
	}
	delta := sum.Violations - prev

	// Rule A: under an IFA protocol the LBM invariant holds by construction,
	// so any online violation is an auditor false positive.
	if delta > 0 && db.Cfg.Protocol.IFA() {
		mism("online auditor raised %d violation(s) under IFA protocol %v", delta, db.Cfg.Protocol)
	}

	// Rule B: when the checker catches a survivor's lost update (the no-LBM
	// hazard), its cause — an unlogged dirty line leaving its failure
	// domain — must have been visible to the auditor before the crash.
	lost := 0
	for _, viol := range violations {
		if strings.Contains(viol, "update lost") {
			lost++
		}
	}
	if lost > 0 && sum.ViolationsByKind[audit.ViolationUnlogged] == 0 {
		mism("checker found %d lost survivor update(s) but the online auditor flagged no unlogged exposure", lost)
	}

	if delta > 0 && len(violations) == 0 {
		// The auditor saw a hazard this episode's crashes did not happen to
		// convert into data loss; preserve the evidence trails while fresh.
		_, _ = db.DumpFlight(fmt.Sprintf("audit-violation-ep%d", ep))
	}
	return sum.Violations
}

// crossCheckExplainer reconciles the dependency tracker's IFA-explainer
// verdicts (computed independently at crash instants, from the coherency
// event stream) against ground truth: the recovery report's abort set and the
// IFA checker's violations. A disagreement in either direction is recorded as
// an ExplainMismatch. abandoned names the transactions rule 3 leaves out. No-op
// when no tracker is attached.
func crossCheckExplainer(db *recovery.DB, rep *recovery.RecoveryReport, violations []string, abandoned map[wal.TxnID]bool, ep int, res *ChaosResult) {
	tr := db.Hooks().Deps
	if tr == nil {
		return
	}
	vs := tr.TakeVerdicts()
	res.Verdicts += len(vs)
	// An episode can contain several crashes (recovery-time crashes retry),
	// each producing a verdict batch; the latest verdict per transaction is
	// the one that saw the most state, so it wins.
	byTxn := make(map[int64]deps.Verdict, len(vs))
	doomed := 0
	for _, v := range vs {
		byTxn[v.Txn] = v
		if v.Doomed {
			doomed++
		}
	}
	res.DoomedVerdicts += doomed
	mism := func(format string, args ...any) {
		res.ExplainMismatches = append(res.ExplainMismatches,
			fmt.Sprintf("episode %d: ", ep)+fmt.Sprintf(format, args...))
	}

	// Rule 1: every transaction recovery aborted was on a crashed node, so
	// the explainer must have issued it a crashed-node verdict.
	for _, t := range rep.Aborted {
		v, ok := byTxn[int64(t)]
		switch {
		case !ok:
			mism("recovery aborted %v but the explainer issued no verdict for it", t)
		case !v.Crashed:
			mism("recovery aborted %v but the explainer classified it a survivor: %s", t, v.Text)
		}
	}

	// Rule 2: a doomed-survivor verdict means an update with no log record
	// was destroyed — structurally impossible under any protocol that logs
	// before migration. Predicting one under an IFA protocol is a tracker bug.
	if db.Cfg.Protocol.IFA() {
		for _, v := range vs {
			if v.Doomed {
				mism("IFA protocol %v predicted a doomed survivor: %s", db.Cfg.Protocol, v.Text)
			}
		}
	}

	// Rule 3: conversely, when the checker catches a survivor's lost update
	// (the no-LBM hazard the ablated control exists to exhibit), the explainer
	// must have predicted at least one doomed survivor this episode. Losses of
	// abandoned transactions do not count: the checker keeps reporting what an
	// earlier crash destroyed, and with their locks shed anyone may overwrite
	// their updates — neither is crash damage of this episode for the explainer
	// to predict.
	lost := 0
	for _, viol := range violations {
		if strings.Contains(viol, "update lost") && !namesAbandoned(viol, abandoned) {
			lost++
		}
	}
	if lost > 0 && doomed == 0 {
		mism("checker found %d lost survivor update(s) but the explainer predicted none", lost)
	}
}

// namesAbandoned reports whether a checker violation is about one of the
// abandoned transactions.
func namesAbandoned(viol string, abandoned map[wal.TxnID]bool) bool {
	for t := range abandoned {
		if strings.Contains(viol, fmt.Sprintf("transaction %v's", t)) {
			return true
		}
	}
	return false
}
