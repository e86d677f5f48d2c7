package workload

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

func chaosDB(t *testing.T, proto recovery.Protocol, nodes int) *recovery.DB {
	t.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: 4096},
		Protocol:       proto,
		LinesPerPage:   4,
		RecsPerLine:    4,
		Pages:          16,
		LockTableLines: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// attachTracker wires an observer plus dependency tracker into db, enabling
// RunChaos's explainer cross-check.
func attachTracker(db *recovery.DB) *deps.Tracker {
	o := obs.NewWithCapacity(4096)
	tr := deps.New(o)
	db.Attach(hooks.Set{Observer: o, Deps: tr})
	return tr
}

// attachAuditor wires an observer plus online IFA auditor into db, enabling
// RunChaos's auditor cross-check. The auditor reads a residency model of its
// own, which is deliberately not attached as the set's Deps: the explainer's
// reconciliation rules assume an IFA or ablated protocol, while the auditor
// sweep also covers the baseline.
func attachAuditor(db *recovery.DB) *audit.Auditor {
	o := obs.NewWithCapacity(4096)
	a := audit.New(deps.New(nil), audit.Config{
		Stable: db.Cfg.Protocol.StableLBM() && db.M.Config().Coherency == machine.WriteInvalidate,
	})
	db.Attach(hooks.Set{Observer: o, Audit: a})
	return a
}

func chaosSpec(seed int64) Spec {
	return Spec{
		TxnsPerNode:     6,
		OpsPerTxn:       6,
		ReadFraction:    0.4,
		SharingFraction: 0.7,
		Seed:            seed,
	}
}

// TestChaosSeededSweep runs a sweep of seeded fault schedules — migration
// crashes, update-window crashes, torn forces, in-recovery crashes, and
// transient I/O errors all live at once — over each IFA protocol, asserting
// zero checker violations across every recovery.
func TestChaosSeededSweep(t *testing.T) {
	protos := []recovery.Protocol{
		recovery.VolatileSelectiveRedo,
		recovery.StableEager,
		recovery.StableTriggered,
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 6; seed++ {
				db := chaosDB(t, proto, 4)
				attachTracker(db)
				inj := fault.New(fault.Plan{
					Seed:              seed,
					PCrashAtMigration: 0.02,
					PCrashAtUpdate:    0.01,
					PTornForce:        0.02,
					PCrashInRecovery:  0.3,
					PCoordinatorCrash: 0.5,
					PIOError:          0.05,
					MaxCrashes:        2,
				})
				res, err := RunChaos(db, inj, chaosSpec(seed), 3)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Violations) != 0 {
					t.Errorf("seed %d: IFA violations under %v:\n%s",
						seed, proto, strings.Join(res.Violations, "\n"))
				}
				if res.RecoveryAttempts < res.Episodes {
					t.Errorf("seed %d: %d recovery attempts over %d episodes", seed, res.RecoveryAttempts, res.Episodes)
				}
				// The IFA explainer must agree with the checker on every
				// episode: every recovery abort concretely explained, no
				// doomed-survivor predictions under a real LBM protocol.
				if res.Verdicts == 0 {
					t.Errorf("seed %d: tracker attached but no explainer verdicts issued", seed)
				}
				if res.DoomedVerdicts != 0 {
					t.Errorf("seed %d: %d doomed-survivor verdicts under IFA protocol %v",
						seed, res.DoomedVerdicts, proto)
				}
				if len(res.ExplainMismatches) != 0 {
					t.Errorf("seed %d: explainer/checker mismatches under %v:\n%s",
						seed, proto, strings.Join(res.ExplainMismatches, "\n"))
				}
			}
		})
	}
}

// TestChaosCoordinatorCrashDuringRecovery forces the coordinator to die at a
// recovery phase boundary in every episode: recovery must re-elect, re-enter,
// and still satisfy the checker.
func TestChaosCoordinatorCrashDuringRecovery(t *testing.T) {
	db := chaosDB(t, recovery.StableEager, 4)
	inj := fault.New(fault.Plan{
		Seed:              7,
		PCrashInRecovery:  1.0, // fire at the first phase boundary of every attempt
		PCoordinatorCrash: 1.0, // always the coordinator
		MaxCrashes:        2,   // the workload crash plus one in-recovery crash
	})
	res, err := RunChaos(db, inj, chaosSpec(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("IFA violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.RecoveryCrashes == 0 {
		t.Error("no in-recovery crash fired despite PCrashInRecovery=1")
	}
	if res.RecoveryAttempts <= res.Episodes {
		t.Errorf("attempts=%d episodes=%d: no recovery re-entry happened", res.RecoveryAttempts, res.Episodes)
	}
	if res.CoordinatorFailovers == 0 {
		t.Error("coordinator died mid-recovery but no failover was recorded")
	}
}

// TestChaosTornTail makes every fault a torn log force: the victim's stable
// device ends in a partial record, and recovery must truncate it at the last
// checksum-valid record and settle the interrupted commit correctly.
func TestChaosTornTail(t *testing.T) {
	db := chaosDB(t, recovery.StableEager, 3)
	inj := fault.New(fault.Plan{
		Seed:       11,
		PTornForce: 0.05,
	})
	res, err := RunChaos(db, inj, chaosSpec(11), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("IFA violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.TornForces == 0 {
		t.Skip("no torn force fired under this seed (schedule-dependent)")
	}
}

// TestChaosIORetry saturates the workload with transient I/O errors (no
// crashes at all): every operation must eventually succeed through the
// bounded retries, and a plain recovery of a forced crash must still pass.
func TestChaosIORetry(t *testing.T) {
	db := chaosDB(t, recovery.VolatileSelectiveRedo, 3)
	inj := fault.New(fault.Plan{
		Seed:     13,
		PIOError: 0.5,
	})
	res, err := RunChaos(db, inj, chaosSpec(13), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("IFA violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.IOErrors == 0 {
		t.Error("no I/O error fired despite PIOError=0.5")
	}
	if res.Committed == 0 {
		t.Error("nothing committed under transient I/O errors (retries not working)")
	}
}

// TestChaosBrokenPolicyCaught is the negative control: the AblatedNoLBM
// policy logs at commit instead of before migration, so a crash at a line
// migration loses undo information the survivors already depend on. The same
// chaos harness that passes the real protocols must catch it.
func TestChaosBrokenPolicyCaught(t *testing.T) {
	caught := false
	var mismatches []string
	for seed := int64(1); seed <= 12 && !caught; seed++ {
		db := chaosDB(t, recovery.AblatedNoLBM, 4)
		attachTracker(db)
		inj := fault.New(fault.Plan{
			Seed: seed,
			// Mid-workload odds, not certainty: a certain crash would fire
			// at the episode's very first data-line migration, before any
			// transaction has uncommitted state to lose.
			PCrashAtMigration: 0.35,
		})
		res, err := RunChaos(db, inj, chaosSpec(seed), 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) > 0 {
			caught = true
		}
		mismatches = append(mismatches, res.ExplainMismatches...)
	}
	if !caught {
		t.Fatal("chaos harness failed to catch the deliberately broken AblatedNoLBM policy")
	}
	if len(mismatches) != 0 {
		t.Errorf("explainer/checker mismatches under AblatedNoLBM:\n%s",
			strings.Join(mismatches, "\n"))
	}
}

// TestChaosAuditCleanRealProtocols runs the full chaos fault schedule over
// every real protocol with the online IFA auditor armed: the continuously
// monitored LBM invariant must hold — zero typed violations — across every
// workload, crash, and recovery, and the auditor must agree with the
// crash-time checker on every episode.
func TestChaosAuditCleanRealProtocols(t *testing.T) {
	for _, proto := range recovery.Protocols() {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				db := chaosDB(t, proto, 4)
				a := attachAuditor(db)
				inj := fault.New(fault.Plan{
					Seed:              seed,
					PCrashAtMigration: 0.02,
					PCrashAtUpdate:    0.01,
					PTornForce:        0.02,
					PCrashInRecovery:  0.3,
					PCoordinatorCrash: 0.5,
					PIOError:          0.05,
					MaxCrashes:        2,
				})
				res, err := RunChaos(db, inj, chaosSpec(seed), 3)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.AuditViolations != 0 {
					var details []string
					for _, v := range a.Violations() {
						details = append(details, v.Detail)
					}
					t.Errorf("seed %d: online auditor raised %d violation(s) under %v:\n%s",
						seed, res.AuditViolations, proto, strings.Join(details, "\n"))
				}
				if len(res.ExplainMismatches) != 0 {
					t.Errorf("seed %d: auditor/checker mismatches under %v:\n%s",
						seed, proto, strings.Join(res.ExplainMismatches, "\n"))
				}
				sum := a.Summary()
				if sum.Completed == 0 {
					t.Errorf("seed %d: auditor observed no completed trails", seed)
				}
				if sum.Windows == 0 {
					t.Errorf("seed %d: auditor recorded no time-series windows", seed)
				}
			}
		})
	}
}

// TestChaosAuditCatchesAblated is the negative control for the online
// auditor: under AblatedNoLBM every migration of a dirty line is an
// unlogged exposure, so the auditor must raise typed violations — each
// carrying the offending transaction's trail as evidence — without waiting
// for a crash to convert the hazard into data loss, and without ever
// disagreeing with the crash-time checker. The fault draws are seeded but
// their *order* follows the goroutine interleaving (the race detector's
// slowdown shifts it), so no single seed guarantees a mid-workload
// migration crash; the sweep fails only if every seed stays silent.
func TestChaosAuditCatchesAblated(t *testing.T) {
	var a *audit.Auditor
	var res *ChaosResult
	for seed := int64(1); seed <= 8; seed++ {
		db := chaosDB(t, recovery.AblatedNoLBM, 4)
		aud := attachAuditor(db)
		inj := fault.New(fault.Plan{
			Seed:              seed,
			PCrashAtMigration: 0.35,
		})
		r, err := RunChaos(db, inj, chaosSpec(seed), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.ExplainMismatches) != 0 {
			t.Errorf("seed %d: auditor/checker mismatches under AblatedNoLBM:\n%s",
				seed, strings.Join(r.ExplainMismatches, "\n"))
		}
		if r.AuditViolations > 0 {
			// Keep the first violating seed; prefer one whose exposure
			// windows also closed (watchdog anomalies evaluated).
			if res == nil || r.AuditAnomalies > 0 {
				a, res = aud, &r
			}
			if r.AuditAnomalies > 0 {
				break
			}
		}
	}
	if res == nil {
		t.Fatal("the ablated protocol migrated dirty lines on 8 seeds but the online auditor raised no violation")
	}
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatal("violation total > 0 but no records retained")
	}
	for i, v := range vs {
		if v.Kind != audit.ViolationUnlogged {
			t.Errorf("violation %d kind = %q, want %q", i, v.Kind, audit.ViolationUnlogged)
		}
		if len(v.Trail.Steps) == 0 {
			t.Errorf("violation %d carries no evidence trail", i)
		}
		if v.Detail == "" || v.Name == "" {
			t.Errorf("violation %d missing provenance: %+v", i, v)
		}
	}
	// The evidence trail must show the unlogged update that caused the
	// exposure: an update step with LSN 0 on the violating line.
	found := false
	for _, s := range vs[0].Trail.Steps {
		if s.Kind == "update" && s.Line == vs[0].Line && s.LSN == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("evidence trail lacks the unlogged update of line %d:\n%+v", vs[0].Line, vs[0].Trail.Steps)
	}
	if res.AuditAnomalies == 0 {
		t.Error("unlogged exposures raised no watchdog anomaly")
	}
}

// TestAblatedDoomedVerdict drives the doomed-survivor hazard itself: under
// AblatedNoLBM the sole copy of a survivor's unlogged update migrates to the
// crash victim and dies there, and the explainer must predict the loss with
// an "unlogged cross-node dependency" verdict that the checker then confirms.
// A writes-only, fully-shared workload keeps lines exclusive (reads would
// downgrade them to shared, where write-broadcast preserves surviving
// copies), and the low crash probability lets cross-node write traffic build
// up in-flight dependencies before the victim dies. The schedule is heavily
// contended, so it is deliberately named outside the -run Chaos race sweep.
func TestAblatedDoomedVerdict(t *testing.T) {
	if raceEnabled {
		// The write-only, high-sharing schedule this sweep needs is a lock
		// convoy by design; under the race detector's slowdown it livelocks
		// past the harness's wedge deadline. The explainer/checker agreement
		// it asserts is covered under race by the Chaos tests.
		t.Skip("hyper-contended schedule livelocks under the race detector")
	}
	doomed := 0
	var mismatches []string
	for seed := int64(1); seed <= 12; seed++ {
		db := chaosDB(t, recovery.AblatedNoLBM, 4)
		attachTracker(db)
		inj := fault.New(fault.Plan{
			Seed:              seed,
			PCrashAtMigration: 0.03,
		})
		spec := chaosSpec(seed)
		spec.TxnsPerNode = 12
		spec.OpsPerTxn = 12
		spec.ReadFraction = 0
		spec.SharingFraction = 0.9
		res, err := RunChaos(db, inj, spec, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doomed += res.DoomedVerdicts
		mismatches = append(mismatches, res.ExplainMismatches...)
	}
	if doomed == 0 {
		t.Error("no doomed-survivor verdict across the ablated sweep: the explainer never predicted an unlogged cross-node loss")
	}
	if len(mismatches) != 0 {
		t.Errorf("explainer/checker mismatches under AblatedNoLBM:\n%s",
			strings.Join(mismatches, "\n"))
	}
}

// TestWedgeEvidence: what the harness attaches to a wedged episode's error
// names the row somebody waits on, the deadlock verdict, every active
// transaction's held and queued locks, the worker count and the goroutine
// stacks — in the error itself without a flight recorder, as wedge.txt of
// one dump with one, and in no dump taken afterwards.
func TestWedgeEvidence(t *testing.T) {
	db := chaosDB(t, recovery.VolatileSelectiveRedo, 2)
	if err := Seed(db, 0); err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(db)
	rid := heap.RID{Page: 1, Slot: 0}
	holder, _ := mgr.Begin(0)
	waiter, _ := mgr.Begin(1)
	if err := holder.Write(rid, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Write(rid, []byte{8}); !errors.Is(err, txn.ErrBlocked) {
		t.Fatalf("conflicting write: %v", err)
	}
	name := lock.NameOfRID(rid)
	check := func(report string) {
		t.Helper()
		for _, want := range []string{
			"live workers: 2",
			fmt.Sprintf("lock %v: holders [{%v", name, holder.ID()),
			"FindDeadlock: victim",
			fmt.Sprintf("%v: holds [{%v", holder.ID(), name),
			fmt.Sprintf("%v: holds [], queued [{%v", waiter.ID(), name),
			"goroutine ",
		} {
			if !strings.Contains(report, want) {
				t.Errorf("wedge evidence lacks %q:\n%s", want, report)
			}
		}
	}
	check(wedgeEvidence(db, 3, 2))

	fr := obs.NewFlightRecorder(t.TempDir(), 16)
	db.Attach(hooks.Set{Observer: obs.NewWithCapacity(256), Flight: fr})
	got := wedgeEvidence(db, 3, 2)
	dumps := fr.Dumps()
	if len(dumps) != 1 || !strings.Contains(dumps[0], "wedge-ep3") || !strings.Contains(got, dumps[0]) {
		t.Fatalf("evidence %q, dumps %v; want one wedge-ep3 dump, named in the evidence", got, dumps)
	}
	report, err := os.ReadFile(filepath.Join(dumps[0], "wedge.txt"))
	if err != nil {
		t.Fatal(err)
	}
	check(string(report))
	later, err := db.DumpFlight("later")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(later, "wedge.txt")); !os.IsNotExist(err) {
		t.Errorf("a dump outside the wedge path carries wedge.txt (stat: %v)", err)
	}
}
