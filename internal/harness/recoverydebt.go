package harness

import (
	"errors"
	"fmt"

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
// tracker attached through recoveryDebtCycles identical crash/recover
// cycles. Every cycle reads node 3's estimate immediately before crashing it
// and compares it with the simulated duration of the recovery that follows
// (RecoveryReport.SimTime). Gates: every cycle's estimate lands within
// recoveryDebtMaxRatio of its measurement, per-record attribution coverage
// reaches recoveryDebtMinCoverage, debt collapses to zero right after a
// successful recovery (the tracker's re-anchored safe point) and
// re-accumulates once survivors resume, and a double run of every arm gives
// the same point, estimate and measurement included, but for the wall MTTR —
// the property that lets the tracker ride under the chaos record/replay
// harness.
type RecoveryDebtPoint struct {
	Protocol recovery.Protocol
	// Pre-crash accounting of the last cycle.
	DebtRecords int64
	DebtBytes   int64
	RedoSpan    int64
	Coverage    float64
	// EstNS is node 3's estimated recovery time before the crash and SimNS
	// the recovery's simulated duration, from the cycle where the two agree
	// least; Ratio is the larger over the smaller.
	EstNS int64
	SimNS int64
	Ratio float64
	// ResidualDebt is the debt immediately after the last recovery (the
	// safe point should have swallowed everything); ResumedDebt the debt
	// after survivors resumed (it must re-accumulate).
	ResidualDebt int64
	ResumedDebt  int64
	// MTTR accounting after every cycle; EwmaMTTRNS is wall time.
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
const recoveryDebtMaxRatio = 1.25

// recoveryDebtRounds is the committed convoy rounds per cycle (plus one
// round left in flight).
const recoveryDebtRounds = 4

// recoveryDebtCycles is how many crash/recover cycles each arm runs, every
// one judged. Recover writes no checkpoint, so each cycle's recovery replays
// the earlier cycles' records again and takes a little longer.
const recoveryDebtCycles = 3

// recoveryDebtVictim is the node every cycle crashes: the holder of every
// hopped line.
const recoveryDebtVictim = machine.NodeID(3)

// RunRecoveryDebt runs E24.
func RunRecoveryDebt(seed int64) (*RecoveryDebtResult, error) {
	_ = seed // the schedule is deterministic; kept for the bench's uniform signature
	res := &RecoveryDebtResult{}
	for _, proto := range recovery.Protocols() {
		p, err := recoveryDebtArm(proto)
		if err != nil {
			return nil, fmt.Errorf("recoverydebt %v: %w", proto, err)
		}
		// Determinism gate: a second, identical run must give the same
		// point but for the wall MTTR.
		q, err := recoveryDebtArm(proto)
		if err != nil {
			return nil, fmt.Errorf("recoverydebt %v (rerun): %w", proto, err)
		}
		q.EwmaMTTRNS = p.EwmaMTTRNS
		if p != q {
			return nil, fmt.Errorf("recoverydebt %v: nondeterministic accounting: %+v vs %+v", proto, p, q)
		}
		if p.Coverage < recoveryDebtMinCoverage {
			return nil, fmt.Errorf("recoverydebt %v: attribution coverage %.3f < %.2f",
				proto, p.Coverage, recoveryDebtMinCoverage)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// recoveryDebtArm runs one protocol's cell: recoveryDebtCycles judged
// cycles, then a resumed round.
func recoveryDebtArm(proto recovery.Protocol) (RecoveryDebtPoint, error) {
	p := RecoveryDebtPoint{Protocol: proto}
	db, err := seededDB(proto, 4, 4, defaultPages, 0)
	if err != nil {
		return p, err
	}
	d := debt.New(debt.Config{DiskReadNS: db.M.Config().Cost.DiskRead, LogForceNS: db.LogForceCost()})
	db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Debt: d})
	mgr := txn.NewManager(db)

	var post debt.Snapshot
	for cycle := 0; cycle < recoveryDebtCycles; cycle++ {
		pre, cpost, simNS, err := recoveryDebtCycle(db, mgr, d, proto, cycle*(recoveryDebtRounds+1))
		if err != nil {
			return p, err
		}
		post = cpost
		if cpost.DebtRecords != 0 {
			return p, fmt.Errorf("cycle %d: debt did not collapse after recovery: %d records above the safe point",
				cycle, cpost.DebtRecords)
		}
		est := pre.Nodes[recoveryDebtVictim].EstNS
		ratio := float64(est) / float64(simNS)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > recoveryDebtMaxRatio {
			return p, fmt.Errorf("cycle %d: estimate %s vs measured %s — ratio %.2f > %.2fx",
				cycle, ms(est), ms(simNS), ratio, recoveryDebtMaxRatio)
		}
		if ratio > p.Ratio {
			p.EstNS, p.SimNS, p.Ratio = est, simNS, ratio
		}
		p.DebtRecords = pre.DebtRecords
		p.DebtBytes = pre.DebtBytes
		p.RedoSpan = pre.RedoSpan
		p.Coverage = pre.Coverage
	}

	p.ResidualDebt = post.DebtRecords
	p.Recoveries = post.Recoveries
	p.EwmaMTTRNS = post.EwmaWallNS
	if post.Failures != 0 {
		return p, fmt.Errorf("%d failed recoveries", post.Failures)
	}
	if p.Recoveries != recoveryDebtCycles {
		return p, fmt.Errorf("recoveries = %d, want %d", p.Recoveries, recoveryDebtCycles)
	}

	// Debt must re-accumulate once the system resumes work.
	if _, err := depCensusRound(db, mgr, recoveryDebtCycles*(recoveryDebtRounds+1), true); err != nil {
		return p, err
	}
	p.ResumedDebt = d.Snapshot().DebtRecords
	if p.ResumedDebt <= p.ResidualDebt {
		return p, fmt.Errorf("debt did not re-accumulate after recovery (resumed %d)", p.ResumedDebt)
	}
	return p, nil
}

// recoveryDebtCycle drives committed convoy rounds plus one in-flight round,
// snapshots the tracker, crashes the victim, recovers, snapshots again (the
// residual-debt probe, before anything resumes), and settles the surviving
// transactions. It returns both snapshots and the recovery's simulated
// duration. base offsets the round payloads so cycles write distinct values.
func recoveryDebtCycle(db *recovery.DB, mgr *txn.Manager, d *debt.Tracker, proto recovery.Protocol, base int) (pre, post debt.Snapshot, simNS int64, err error) {
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

	db.Crash(recoveryDebtVictim)
	rep, err := db.Recover([]machine.NodeID{recoveryDebtVictim})
	if err != nil {
		return pre, post, 0, err
	}
	post = d.Snapshot()
	if !db.M.Alive(recoveryDebtVictim) { // the baseline reboot restarts every node itself
		if err := db.RestartNode(recoveryDebtVictim); err != nil {
			return pre, post, rep.SimTime, err
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
				return pre, post, rep.SimTime, err
			}
			if err := txs[n].Commit(); err != nil {
				return pre, post, rep.SimTime, err
			}
		}
	}
	return pre, post, rep.SimTime, nil
}

// Table renders the census.
func (r *RecoveryDebtResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "debt-recs", "debt-bytes", "redo-span", "coverage",
		"est", "measured", "ratio", "residual", "recoveries", "mttr-ewma",
	}, host: []string{"mttr-ewma"}}
	for _, p := range r.Points {
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.DebtRecords),
			fmt.Sprintf("%d", p.DebtBytes),
			fmt.Sprintf("%d", p.RedoSpan),
			pct(p.Coverage),
			ms(p.EstNS),
			ms(p.SimNS),
			fmt.Sprintf("%.2fx", p.Ratio),
			fmt.Sprintf("%d", p.ResidualDebt),
			fmt.Sprintf("%d", p.Recoveries),
			us(p.EwmaMTTRNS),
		)
	}
	return t.String()
}
