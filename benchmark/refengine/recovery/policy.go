// Package recovery implements the paper's contribution: crash-recovery
// protocols for cache-coherent shared-memory database systems that guarantee
// Isolated Failure Atomicity (IFA). If one or more nodes crash, all effects
// of active transactions on the crashed nodes are undone, and no effects of
// transactions on surviving nodes are lost — avoiding the unnecessary
// transaction aborts a conventional (reboot-the-box) recovery design incurs.
//
// The package combines:
//
//   - Logging-Before-Migration (LBM) policies enforced in the update
//     protocol (section 4.1.1 / 5): Volatile LBM pins the updated line with
//     a line lock until the volatile log record is written; Stable LBM
//     additionally forces the log — either eagerly on every update, or
//     lazily via the section 5.2 coherency trigger that forces exactly when
//     an active line is about to migrate, downgrade, or be invalidated.
//
//   - Restart recovery schemes (section 4.1.2): Redo All (survivors flush
//     their caches and replay their redo logs) and Selective Redo
//     (survivors redo only updates that resided solely on crashed nodes,
//     then undo crashed transactions' updates found in surviving caches via
//     per-record undo tags).
//
//   - The corresponding treatment of database support structures: the
//     shared-memory lock space (release crashed transactions' locks, rebuild
//     destroyed LCBs from logged — including read — lock acquisitions) and
//     early-committed structural changes (nested top-level actions).
//
//   - A conventional failure-atomicity baseline (system reboot on any node
//     crash) against which the IFA protocols are measured.
package recovery

import "fmt"

// Protocol selects a complete recovery protocol: an LBM policy paired with a
// restart scheme, with the paper's Table 1 determining which runtime
// overheads each incurs.
type Protocol int

const (
	// BaselineFA is the conventional protocol: per-node WAL with commit
	// forces, no LBM provisions, no read-lock logging, no undo tags, no
	// early commit of structural changes. A single node crash forces a
	// whole-machine reboot, aborting every active transaction — failure
	// atomicity without isolation.
	BaselineFA Protocol = iota
	// VolatileRedoAll is Volatile LBM with the Redo All restart scheme:
	// survivors discard all cached database lines and replay their redo
	// logs. No undo tags needed; recovery does more redo work.
	VolatileRedoAll
	// VolatileSelectiveRedo is Volatile LBM with Selective Redo: records
	// carry undo tags (node IDs) in their cache lines; survivors redo only
	// what was lost and undo crashed transactions' updates in place.
	VolatileSelectiveRedo
	// StableEager is Stable LBM enforced by forcing the log within every
	// update's critical section — correct but with a log force per update.
	StableEager
	// StableTriggered is Stable LBM enforced by the section 5.2 hardware
	// extension: a per-line active bit triggers a log force only when an
	// active line is about to leave its updater's failure domain.
	StableTriggered
	// AblatedNoLBM is a negative control, not one of the paper's
	// protocols: update logging is deferred to commit time, so no
	// logging-before-migration happens at all, while everything else
	// (restart machinery, read-lock logging, early structural commit)
	// stays in place. It exists to demonstrate — and let the IFA checker
	// catch — exactly the failures LBM prevents: an uncommitted update
	// that migrated to a survivor cannot be undone after its node
	// crashes, and a surviving transaction's update that migrated to a
	// crashed node cannot be redone. Voluntary aborts of transactions
	// with writes are unsupported under this variant.
	AblatedNoLBM
)

var protocolNames = map[Protocol]string{
	BaselineFA:            "baseline-fa",
	VolatileRedoAll:       "volatile-lbm/redo-all",
	VolatileSelectiveRedo: "volatile-lbm/selective-redo",
	StableEager:           "stable-lbm/eager",
	StableTriggered:       "stable-lbm/triggered",
	AblatedNoLBM:          "ablated/no-lbm",
}

func (p Protocol) String() string {
	if s, ok := protocolNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol maps a String() rendering back to its Protocol — the form
// recorded in chaos schedule files.
func ParseProtocol(s string) (Protocol, bool) {
	for p, name := range protocolNames {
		if name == s {
			return p, true
		}
	}
	return 0, false
}

// Protocols lists every protocol, in presentation order.
func Protocols() []Protocol {
	return []Protocol{BaselineFA, VolatileRedoAll, VolatileSelectiveRedo, StableEager, StableTriggered}
}

// IFA reports whether the protocol guarantees isolated failure atomicity.
func (p Protocol) IFA() bool { return p != BaselineFA && p != AblatedNoLBM }

// UndoTagging reports whether the protocol writes per-record undo tags
// (Table 1: only Volatile LBM with Selective Redo).
func (p Protocol) UndoTagging() bool { return p == VolatileSelectiveRedo }

// LogsReadLocks reports whether shared-lock acquisitions are logged
// (Table 1: all IFA protocols; the ablation keeps it so the lock space is
// not a confound).
func (p Protocol) LogsReadLocks() bool { return p.IFA() || p == AblatedNoLBM }

// EarlyCommitsStructural reports whether structural changes are committed
// (forced) before other transactions may use their results (Table 1: all
// IFA protocols; kept by the ablation for the same reason as read locks).
func (p Protocol) EarlyCommitsStructural() bool { return p.IFA() || p == AblatedNoLBM }

// StableLBM reports whether the protocol forces log records to stable store
// before uncommitted data can migrate.
func (p Protocol) StableLBM() bool { return p == StableEager || p == StableTriggered }

// SelectiveRedo reports whether restart uses the Selective Redo scheme.
// (Stable LBM pairs with Selective Redo here: with stable undo available it
// never needs the cache flush of Redo All.)
func (p Protocol) SelectiveRedo() bool {
	return p == VolatileSelectiveRedo || p == StableEager || p == StableTriggered || p == AblatedNoLBM
}

// DeferredLogging reports whether update logging is postponed to commit —
// only true for the AblatedNoLBM negative control.
func (p Protocol) DeferredLogging() bool { return p == AblatedNoLBM }
