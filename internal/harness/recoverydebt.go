package harness

import (
	"errors"
	"fmt"
	"time"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// Experiment E24 is the recovery-debt estimator accuracy census: each real
// protocol runs the deterministic depcensus convoy schedule with the debt
// tracker attached through structurally identical crash/recover cycles. The
// first cycle calibrates the estimator (the recovery span that ends each
// run feeds the measured ns-per-replayed-record back into the tracker); each
// later cycle snapshots the calibrated replay-time estimate immediately
// before the crash, then recovers and compares the estimate against the
// measured recovery wall time. Gates: the estimate must land within
// recoveryDebtMaxRatio (2x) of the measurement on the best-agreeing judged
// cycle (wall-clock jitter on one cycle must not fail a sound estimator),
// per-record attribution coverage must reach recoveryDebtMinCoverage, debt
// must collapse to zero right after a
// successful recovery (the fuzzy end-of-restart safe point) and
// re-accumulate once survivors resume, and a double run of every arm must
// produce identical sim-deterministic accounting — the property that lets
// the tracker ride under the chaos record/replay harness.
type RecoveryDebtPoint struct {
	Protocol recovery.Protocol
	// Pre-crash accounting of the first judged cycle (the shape the
	// double-run determinism gate compares).
	DebtRecords int64
	DebtBytes   int64
	RedoSpan    int64
	Coverage    float64
	// EstNS is the calibrated parallel-adjusted replay estimate at the
	// snapshot and WallNS the measured recovery wall time, from the
	// best-agreeing judged cycle; Ratio is the larger over the smaller
	// after both are clamped up to recoveryDebtNoiseNS.
	EstNS  int64
	WallNS int64
	Ratio  float64
	// ResidualDebt is the debt immediately after the judged recovery (the
	// safe point should have swallowed everything); ResumedDebt the debt
	// after survivors resumed (it must re-accumulate).
	ResidualDebt int64
	ResumedDebt  int64
	// MTTR accounting after both cycles.
	Recoveries int64
	EwmaMTTRNS int64
}

// RecoveryDebtResult is the per-protocol sweep.
type RecoveryDebtResult struct {
	Points []RecoveryDebtPoint
}

// recoveryDebtMinCoverage gates per-record attribution: below this the
// space-attribution story is lying by omission.
const recoveryDebtMinCoverage = 0.9

// recoveryDebtMaxRatio gates estimate-vs-actual accuracy.
const recoveryDebtMaxRatio = 2.0

// recoveryDebtNoiseNS clamps both sides of the accuracy ratio: recoveries
// this short are dominated by scheduler noise, not replay work, and the
// estimator is not pretending to resolve them.
const recoveryDebtNoiseNS = 200_000

// recoveryDebtRounds is the committed convoy rounds per cycle (plus one
// round left in flight); enough that recovery replays a multi-hundred-record
// debt and the wall measurement rises above the noise clamp.
const recoveryDebtRounds = 4

// recoveryDebtJudged is how many calibrated cycles each arm judges; the
// accuracy gate takes the best ratio, so a single GC pause or scheduler
// hiccup inflating one measured recovery cannot fail a sound estimator, and
// the α = 0.5 EWMA halves a calibration stall per cycle: seven judged cycles
// outlast a calibration recovery up to 65x too slow (three: 5x).
const recoveryDebtJudged = 7

// RunRecoveryDebt runs E24.
func RunRecoveryDebt(seed int64) (*RecoveryDebtResult, error) {
	_ = seed // the schedule is deterministic; kept for the bench's uniform signature
	res := &RecoveryDebtResult{}
	for _, proto := range recovery.Protocols() {
		p, err := recoveryDebtArm(proto)
		if err != nil {
			return nil, fmt.Errorf("recoverydebt %v: %w", proto, err)
		}
		// Determinism gate: a second, identical run must produce the same
		// sim-deterministic accounting (wall-clock fields are excluded — the
		// estimator calibrates from real time by design).
		q, err := recoveryDebtArm(proto)
		if err != nil {
			return nil, fmt.Errorf("recoverydebt %v (rerun): %w", proto, err)
		}
		if p.DebtRecords != q.DebtRecords || p.DebtBytes != q.DebtBytes ||
			p.RedoSpan != q.RedoSpan || p.Coverage != q.Coverage ||
			p.ResidualDebt != q.ResidualDebt || p.Recoveries != q.Recoveries {
			return nil, fmt.Errorf("recoverydebt %v: nondeterministic accounting: %+v vs %+v", proto, p, q)
		}
		if p.Coverage < recoveryDebtMinCoverage {
			return nil, fmt.Errorf("recoverydebt %v: attribution coverage %.3f < %.2f",
				proto, p.Coverage, recoveryDebtMinCoverage)
		}
		if p.EstNS <= 0 {
			return nil, fmt.Errorf("recoverydebt %v: no calibrated estimate at the crash snapshot", proto)
		}
		if p.Ratio > recoveryDebtMaxRatio {
			return nil, fmt.Errorf("recoverydebt %v: estimate %s vs measured %s — ratio %.2f > %.1fx",
				proto, us(p.EstNS), us(p.WallNS), p.Ratio, recoveryDebtMaxRatio)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// recoveryDebtArm runs one protocol's cell: a calibration cycle followed by
// recoveryDebtJudged judged cycles.
func recoveryDebtArm(proto recovery.Protocol) (RecoveryDebtPoint, error) {
	p := RecoveryDebtPoint{Protocol: proto}
	db, err := seededDB(proto, 4, 4, defaultPages, 0)
	if err != nil {
		return p, err
	}
	d := debt.New(debt.Config{Nodes: db.M.Nodes(), LinesPerPage: db.Cfg.LinesPerPage})
	db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Debt: d})
	mgr := txn.NewManager(db)

	// Cycle 0: calibrate. The pre-crash snapshot is discarded — the tracker
	// has no replay-rate sample yet.
	if _, _, _, err := recoveryDebtCycle(db, mgr, d, proto, 0); err != nil {
		return p, err
	}

	// Judged cycles: snapshot the calibrated estimate just before each
	// crash, measure the recovery it predicts, and keep the best ratio (the
	// accounting fields come from the first judged cycle — the one whose
	// sim-deterministic shape the double-run gate compares).
	var post debt.Snapshot
	for cycle := 0; cycle < recoveryDebtJudged; cycle++ {
		base := (cycle + 1) * (recoveryDebtRounds + 1)
		pre, cpost, wallNS, err := recoveryDebtCycle(db, mgr, d, proto, base)
		if err != nil {
			return p, err
		}
		post = cpost
		if cpost.DebtRecords != 0 {
			return p, fmt.Errorf("cycle %d: debt did not collapse after recovery: %d records above the safe point",
				cycle, cpost.DebtRecords)
		}
		est, wall := pre.EstNS, wallNS
		if est < recoveryDebtNoiseNS {
			est = recoveryDebtNoiseNS
		}
		if wall < recoveryDebtNoiseNS {
			wall = recoveryDebtNoiseNS
		}
		ratio := float64(est) / float64(wall)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if cycle == 0 {
			p.DebtRecords = pre.DebtRecords
			p.DebtBytes = pre.DebtBytes
			p.RedoSpan = pre.RedoSpan
			p.Coverage = pre.Coverage
		}
		if cycle == 0 || ratio < p.Ratio {
			p.EstNS = pre.EstNS
			p.WallNS = wallNS
			p.Ratio = ratio
		}
		if pre.EstNS <= 0 {
			return p, fmt.Errorf("cycle %d: no calibrated estimate at the crash snapshot", cycle)
		}
	}

	p.ResidualDebt = post.DebtRecords
	p.Recoveries = post.Recoveries
	p.EwmaMTTRNS = post.EwmaWallNS
	if post.Failures != 0 {
		return p, fmt.Errorf("%d failed recoveries", post.Failures)
	}
	if want := int64(recoveryDebtJudged + 1); p.Recoveries != want {
		return p, fmt.Errorf("recoveries = %d, want %d", p.Recoveries, want)
	}

	// Debt must re-accumulate once the system resumes work.
	if _, err := depCensusRound(db, mgr, (recoveryDebtJudged+1)*(recoveryDebtRounds+1), true); err != nil {
		return p, err
	}
	p.ResumedDebt = d.Snapshot().DebtRecords
	if p.ResumedDebt <= p.ResidualDebt {
		return p, fmt.Errorf("debt did not re-accumulate after recovery (resumed %d)", p.ResumedDebt)
	}
	return p, nil
}

// recoveryDebtCycle drives committed convoy rounds plus one in-flight round,
// snapshots the tracker, crashes node 3 (the holder of every hopped line),
// recovers under wall timing, snapshots again (the residual-debt probe,
// before anything resumes), and settles the surviving transactions. base
// offsets the round payloads so the two cycles write distinct values.
func recoveryDebtCycle(db *recovery.DB, mgr *txn.Manager, d *debt.Tracker, proto recovery.Protocol, base int) (pre, post debt.Snapshot, wallNS int64, err error) {
	for round := 0; round < recoveryDebtRounds; round++ {
		if _, err := depCensusRound(db, mgr, base+round, true); err != nil {
			return pre, post, 0, err
		}
	}
	txs, err := depCensusRound(db, mgr, base+recoveryDebtRounds, false)
	if err != nil {
		return pre, post, 0, err
	}
	pre = d.Snapshot()

	victim := machine.NodeID(3)
	db.Crash(victim)
	start := time.Now()
	if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
		return pre, post, 0, err
	}
	wallNS = time.Since(start).Nanoseconds()
	post = d.Snapshot()
	if !db.M.Alive(victim) { // the baseline reboot restarts every node itself
		if err := db.RestartNode(victim); err != nil {
			return pre, post, wallNS, err
		}
	}

	if proto.IFA() {
		// Survivors resume and commit (under the baseline recovery aborted
		// everything, including the survivors' in-flight transactions).
		for n := 0; n < 3; n++ {
			if err := txn.Retry(func() error {
				return txs[n].Write(heap.RID{Page: 1, Slot: uint16(n)}, []byte{byte(base + 8), byte(n)})
			}); err != nil {
				if errors.Is(err, txn.ErrDone) {
					continue
				}
				return pre, post, wallNS, err
			}
			if err := txs[n].Commit(); err != nil {
				return pre, post, wallNS, err
			}
		}
	}
	return pre, post, wallNS, nil
}

// Table renders the census.
func (r *RecoveryDebtResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "debt-recs", "debt-bytes", "redo-span", "coverage",
		"est", "measured", "ratio", "residual", "recoveries", "mttr-ewma",
	}, host: []string{"est", "measured", "ratio", "mttr-ewma"}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.DebtRecords),
			fmt.Sprintf("%d", p.DebtBytes),
			fmt.Sprintf("%d", p.RedoSpan),
			pct(p.Coverage),
			us(p.EstNS),
			us(p.WallNS),
			fmt.Sprintf("%.2fx", p.Ratio),
			fmt.Sprintf("%d", p.ResidualDebt),
			fmt.Sprintf("%d", p.Recoveries),
			us(p.EwmaMTTRNS),
		)
	}
	return t.String()
}
