package harness

import (
	"strings"

	"smdb/internal/obs"
	"smdb/internal/recovery"
)

// Experiment is one entry of the experiment index (DESIGN.md): Run returns
// its table(s), printed as they are, or fails. A table marks its host-time
// columns — wall clock, and ratios of it — by ruling them with '~' instead of
// '-' under the header; every other cell is determined by the seed.
type Experiment struct {
	Name   string
	ID     string
	Title  string
	Source string
	Run    func(seed int64, o *obs.Observer) (string, error)
}

// Experiments is the index, in presentation order.
var Experiments = []Experiment{
	{"table1", "E1", "incremental overheads of the IFA protocols", "Table 1",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunTable1(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"linelock", "E2", "line-lock acquisition latency vs contention", "section 5.1 measurements",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunLineLock(nil, 200, 0)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"aborts", "E3", "unnecessary aborts after a one-node crash", "sections 1, 3, 9",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunAborts(8, nil, nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"runtime", "E4", "failure-free runtime cost per protocol", "sections 4.1.1, 5, 7",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunRuntime(8, 0.5, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"restart", "E5", "restart recovery: Redo All vs Selective Redo", "section 4.1.2",
		func(seed int64, o *obs.Observer) (string, error) {
			res, err := RunRestart(nil, seed, o)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"forces", "E6", "log-force frequency vs inter-node sharing", "section 5.2",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunForces(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"broadcast", "E7", "write-broadcast coherency: no migration, undo-only recovery", "section 7",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunBroadcast(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"locks", "E8", "SM locking vs message-passing (shared-disk) locking", "sections 4.2.2, 7, ref [20]",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunLocks(nil, 200, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"btree", "E9", "B-tree crash recovery with early-committed splits", "section 4.2.1",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunBTreeRecovery(recovery.VolatileSelectiveRedo, 80, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"lockrecovery", "E10", "lock-space recovery: LCB loss, release, and rebuild", "section 4.2.2",
		func(seed int64, o *obs.Observer) (string, error) {
			var b strings.Builder
			for _, chained := range []bool{false, true} {
				res, err := RunLockRecovery(recovery.VolatileSelectiveRedo, 8, seed, chained, o)
				if err != nil {
					return "", err
				}
				b.WriteString(res.Table())
			}
			return b.String(), nil
		}},
	{"ablation", "E11", "ablation: the same crash scenarios with LBM disabled", "negative control; sections 3-4",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunAblation()
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"parallel", "E12", "parallel (multi-node) transactions: one crashed branch dooms all", "section 9",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunParallel(recovery.VolatileSelectiveRedo, 4)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"scaling", "E13", "availability scaling: lost work per year vs machine size", "sections 1, 3.3",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunScaling(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"hotspot", "E14", "access skew: migration pressure and force rates", "sections 3.2, 5.2 (worst-case sharing)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunHotspot(nil, seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"osstruct", "E15", "operating-system structures: semaphores and the disk map", "section 9 (conclusions)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunOSStruct()
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"depcensus", "E17", "dependency census: cross-node dependencies per LBM discipline", "sections 3-4 (the hazard LBM prevents, quantified)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunDepCensus(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"parrecovery", "E18", "restart recovery of a multi-survivor crash", "section 4.1.2 (node-parallel restart)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunParRecovery(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"audit", "E19", "online-auditor overhead and violation census", "sections 3-4 (the LBM invariant, checked live); E11's ablation, online",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunAuditOverhead(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"waterfall", "E22", "per-transaction latency waterfalls: causal attribution coverage, tail samples, and recorder overhead", "this implementation's observability layer; sections 5-6 (where each transaction's time went)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunWaterfall(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
	{"recoverydebt", "E24", "recovery-debt estimator: calibrated replay-time estimates vs measured recovery, MTTR accounting, attribution coverage", "this implementation's observability layer; section 5 (how much recovery a crash would cost right now)",
		func(seed int64, _ *obs.Observer) (string, error) {
			res, err := RunRecoveryDebt(seed)
			if err != nil {
				return "", err
			}
			return res.Table(), nil
		}},
}
