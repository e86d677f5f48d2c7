package harness

import (
	"fmt"
	"time"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// Experiment E19 is the online-auditor overhead and violation census: the
// depcensus line-hopping schedule (E17) runs under each representative LBM
// discipline twice — once bare, once with the online IFA auditor attached —
// measuring the wall-clock cost the auditor adds per update and, for the
// audited arms, the census it produced: typed LBM violations, completed
// audit trails, time-series windows, and watchdog anomalies. The real
// protocols must audit clean; the ablated no-LBM control must light up with
// unlogged-exposure violations on the very same schedule, the live analogue
// of E11's post-crash checker ablation.
type AuditOverheadPoint struct {
	Protocol recovery.Protocol
	Audited  bool
	// Updates counts the timed writes; WallNS the wall-clock time the
	// committed rounds took (the failure-free path the auditor taxes).
	Updates int
	WallNS  int64
	// The auditor's census after crash and recovery (zero when unaudited).
	Violations int
	Unlogged   int
	Completed  int
	Windows    int
	Anomalies  int
}

// NSPerUpdate is the timed cost of one write under this arm.
func (p AuditOverheadPoint) NSPerUpdate() int64 {
	if p.Updates == 0 {
		return 0
	}
	return p.WallNS / int64(p.Updates)
}

// AuditOverheadResult is the protocol x {off,on} sweep, off before on.
type AuditOverheadResult struct {
	Points []AuditOverheadPoint
}

// auditOverheadRounds is how many committed line-hopping rounds are timed.
// Each round is depCensusLines lines x 4 nodes = 24 migrating writes.
const auditOverheadRounds = 6

// auditOverheadWindowNS is the audited arms' time-series window width. The
// schedule spans well under the default 1ms of simulated time, so the
// census uses a narrower window to close (and thus evaluate) several
// windows within the run.
const auditOverheadWindowNS = 20_000

// RunAuditOverhead runs E19.
func RunAuditOverhead(seed int64) (*AuditOverheadResult, error) {
	_ = seed // the schedule is deterministic; kept for the bench's uniform signature
	res := &AuditOverheadResult{}
	for _, proto := range []recovery.Protocol{
		recovery.StableEager,
		recovery.VolatileSelectiveRedo,
		recovery.AblatedNoLBM,
	} {
		for _, audited := range []bool{false, true} {
			p, err := auditOverheadArm(proto, audited)
			if err != nil {
				return nil, fmt.Errorf("audit overhead %v audited=%v: %w", proto, audited, err)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// auditOverheadArm runs one (protocol, audited) cell: the timed committed
// rounds, then an untimed in-flight round, the node-3 crash destroying the
// sole copies of its updates, and recovery — so the audited arms exercise
// the auditor's crash/recovery suspension path too, not just the fast path.
func auditOverheadArm(proto recovery.Protocol, audited bool) (AuditOverheadPoint, error) {
	p := AuditOverheadPoint{Protocol: proto, Audited: audited}
	db, err := seededDB(proto, 4, 4, defaultPages, 0)
	if err != nil {
		return p, err
	}
	// Both arms pay for the observer and for the residency model the
	// auditor reads (a tracker echoing nothing), so the delta isolates the
	// auditor itself.
	set := hooks.Set{Observer: obs.NewWithCapacity(8192), Deps: deps.New(nil)}
	if audited {
		set.Audit = audit.New(set.Deps, audit.Config{
			Stable:   proto.StableLBM() && db.M.Config().Coherency == machine.WriteInvalidate,
			WindowNS: auditOverheadWindowNS,
		})
	}
	db.Attach(set)

	mgr := txn.NewManager(db)
	start := time.Now()
	for round := 0; round < auditOverheadRounds; round++ {
		if _, err := depCensusRound(db, mgr, round, true); err != nil {
			return p, err
		}
	}
	p.WallNS = time.Since(start).Nanoseconds()
	p.Updates = auditOverheadRounds * depCensusLines * 4

	// The hazard round: in-flight writes whose sole copies sit on node 3.
	if _, err := depCensusRound(db, mgr, auditOverheadRounds, false); err != nil {
		return p, err
	}
	victim := machine.NodeID(3)
	db.Crash(victim)
	if _, err := db.Recover([]machine.NodeID{victim}); err != nil {
		return p, err
	}

	if audited {
		sum := set.Audit.Summary()
		p.Violations = sum.Violations
		p.Unlogged = sum.ViolationsByKind[audit.ViolationUnlogged]
		p.Completed = sum.Completed
		p.Windows = sum.Windows
		p.Anomalies = sum.Anomalies
	}
	return p, nil
}

// Table renders the sweep; overhead compares each audited arm's per-update
// cost against its protocol's bare arm (wall-clock, so noisy on loaded
// machines — the census columns are the deterministic part).
func (r *AuditOverheadResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "audit", "updates", "ns/update", "overhead",
		"violations", "unlogged", "trails", "windows", "anomalies",
	}, host: []string{"ns/update", "overhead"}}
	bare := map[recovery.Protocol]int64{}
	for _, p := range r.Points {
		if !p.Audited {
			bare[p.Protocol] = p.NSPerUpdate()
		}
	}
	for _, p := range r.Points {
		overhead := "-"
		if p.Audited {
			if b := bare[p.Protocol]; b > 0 {
				overhead = pct(float64(p.NSPerUpdate()-b) / float64(b))
			}
		}
		t.addRow(
			p.Protocol.String(),
			mark(p.Audited),
			fmt.Sprintf("%d", p.Updates),
			fmt.Sprintf("%d", p.NSPerUpdate()),
			overhead,
			fmt.Sprintf("%d", p.Violations),
			fmt.Sprintf("%d", p.Unlogged),
			fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Windows),
			fmt.Sprintf("%d", p.Anomalies),
		)
	}
	return t.String()
}
