package obscli

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"smdb/internal/fault"
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/prof"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/workload"
)

// fullSet builds one of every consumer, sized for db, dumping under dir. With
// reversed set the fields are assigned last-to-first: the value is the same
// either way, which is the point — nothing downstream may care.
func fullSet(db *recovery.DB, dir string, reversed bool) hooks.Set {
	o := obs.NewWithCapacity(4096)
	model := deps.New(o)
	auditor := audit.New(model, audit.Config{})
	assign := []func(*hooks.Set){
		func(s *hooks.Set) { s.Observer = o },
		func(s *hooks.Set) { s.Deps = model },
		func(s *hooks.Set) { s.Audit = auditor },
		func(s *hooks.Set) { s.Prof = prof.NewStripeProf(machine.StripeCount) },
		func(s *hooks.Set) { s.Waterfall = waterfall.New(waterfall.Config{Nodes: db.M.Nodes()}) },
		func(s *hooks.Set) {
			s.Debt = debt.New(debt.Config{DiskReadNS: db.M.Config().Cost.DiskRead, LogForceNS: db.LogForceCost()})
		},
		func(s *hooks.Set) { s.Flight = obs.NewFlightRecorder(dir, 64) },
	}
	if reversed {
		for i, j := 0, len(assign)-1; i < j; i, j = i+1, j-1 {
			assign[i], assign[j] = assign[j], assign[i]
		}
	}
	var set hooks.Set
	for _, f := range assign {
		f(&set)
	}
	return set
}

// traffic is what every consumer of a set has seen, as comparable numbers.
type traffic struct {
	Events, TxnBegins           int64 // observer
	DepTxns, DepEdges, Verdicts int   // deps (sink + direct calls)
	Trails, AuditWindows        int   // audit (sink + direct calls)
	Acquires                    int64 // prof: machine stripes
	Waterfalls                  int64 // waterfall
	Appends, Recoveries         int64 // debt
}

func trafficOf(s *hooks.Set) traffic {
	var tr traffic
	for k := obs.Kind(0); k <= obs.KindDepEdge; k++ {
		tr.Events += s.Observer.Count(k)
	}
	tr.TxnBegins = s.Observer.Count(obs.KindTxnBegin)
	c := s.Deps.Census()
	tr.DepTxns, tr.DepEdges, tr.Verdicts = c.Txns, c.Edges, len(s.Deps.Verdicts())
	sum := s.Audit.Summary()
	tr.Trails, tr.AuditWindows = sum.Active+sum.Completed, sum.Windows
	if s.Prof != nil {
		tr.Acquires = s.Prof.Snapshot().Totals().Acquires
	}
	tr.Waterfalls = s.Waterfall.Completed()
	if s.Debt != nil {
		snap := s.Debt.Snapshot()
		tr.Appends, tr.Recoveries = snap.Appends, snap.Recoveries
	}
	return tr
}

// dumpFiles lists the files of the flight recorder's only dump.
func dumpFiles(t *testing.T, fr *obs.FlightRecorder) []string {
	t.Helper()
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("flight recorder wrote %d dumps, want the one crash dump", len(dumps))
	}
	ents, err := os.ReadDir(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// smokeFiles is the dump file list CI's flight-recorder smoke checks (that
// run has no auditor; one adds its three files).
var smokeFiles = []string{
	"MANIFEST.txt", "debt.json", "deps.dot", "deps.json", "events.json",
	"events.txt", "prof.json", "stats.txt", "waterfall.json",
}

func attachDB(t *testing.T) *recovery.DB {
	t.Helper()
	return newDB(t, recovery.VolatileSelectiveRedo)
}

// TestAttachPoint covers recovery.DB.Attach, the one way a consumer reaches
// the engine.
func TestAttachPoint(t *testing.T) {
	// The reference run: a full set, attached to a fresh DB, one crash
	// episode.
	refDB := attachDB(t)
	refDB.Attach(fullSet(refDB, t.TempDir(), false))
	crashedRun(t, refDB)
	ref := refDB.Hooks()
	refTraffic, refFiles := trafficOf(ref), dumpFiles(t, ref.Flight)

	t.Run("complete", func(t *testing.T) {
		for name, n := range map[string]int64{
			"observer events": refTraffic.Events, "txn-begin events": refTraffic.TxnBegins,
			"deps txns": int64(refTraffic.DepTxns), "deps edges+verdicts": int64(refTraffic.DepEdges + refTraffic.Verdicts),
			"audit trails": int64(refTraffic.Trails), "stripe acquisitions": refTraffic.Acquires,
			"completed waterfalls": refTraffic.Waterfalls, "debt appends": refTraffic.Appends,
			"MTTR samples": refTraffic.Recoveries,
		} {
			if n <= 0 {
				t.Errorf("full set: %s = %d, want traffic", name, n)
			}
		}
		want := append([]string{"audit_trails.json", "timeseries.json", "violations.json"}, smokeFiles...)
		sort.Strings(want)
		if !reflect.DeepEqual(refFiles, want) {
			t.Errorf("crash dump holds %v, want %v", refFiles, want)
		}
	})

	t.Run("order-independent", func(t *testing.T) {
		for _, tc := range []struct {
			name             string
			reversed, before bool
		}{
			{"fields reversed", true, true},
			{"attach after sched and faults", false, false},
			{"both", true, false},
		} {
			db := attachDB(t)
			set := fullSet(db, t.TempDir(), tc.reversed)
			if tc.before {
				db.Attach(set)
			}
			db.AttachSched(sched.NewRecorder())
			db.AttachFaults(fault.New(fault.Plan{}))
			if !tc.before {
				db.Attach(set)
			}
			crashedRun(t, db)
			got := trafficOf(db.Hooks())
			// Host-time and scheduler-placement counts are not the sink
			// fan-out: compare what the event spine and its sinks saw.
			got.Acquires = refTraffic.Acquires
			if got != refTraffic {
				t.Errorf("%s: consumers saw\n  %+v\nthe reference run\n  %+v", tc.name, got, refTraffic)
			}
			if files := dumpFiles(t, db.Hooks().Flight); !reflect.DeepEqual(files, refFiles) {
				t.Errorf("%s: crash dump holds %v, reference %v", tc.name, files, refFiles)
			}
		}
	})

	t.Run("detach", func(t *testing.T) {
		db := attachDB(t)
		set := fullSet(db, t.TempDir(), false)
		db.Attach(set)
		// A run to completion, so the crash strands no transaction holding
		// locks the second episode would wait on.
		if err := workload.Seed(db, 0); err != nil {
			t.Fatal(err)
		}
		spec := workload.Spec{TxnsPerNode: 3, OpsPerTxn: 4, ReadFraction: 0.4, SharingFraction: 0.6, Seed: 7}
		if _, err := workload.NewRunner(db, spec).Run(); err != nil {
			t.Fatal(err)
		}
		db.Crash(3)
		if _, err := db.Recover([]machine.NodeID{3}); err != nil {
			t.Fatal(err)
		}
		before := trafficOf(&set)
		db.Attach(hooks.Set{})
		if *db.Hooks() != (hooks.Set{}) {
			t.Fatal("Attach of the zero set left consumers attached")
		}
		if err := db.RestartNode(3); err != nil {
			t.Fatal(err)
		}
		spec.Seed = 11
		if _, err := workload.NewRunner(db, spec).RunUntilMidFlight(8); err != nil {
			t.Fatal(err)
		}
		db.Crash(2)
		if _, err := db.Recover([]machine.NodeID{2}); err != nil {
			t.Fatal(err)
		}
		if after := trafficOf(&set); after != before {
			t.Errorf("detached consumers still counting:\n  before %+v\n  after  %+v", before, after)
		}
		if n := len(set.Flight.Dumps()); n != 1 {
			t.Errorf("detached flight recorder wrote %d dumps, want the 1 from before", n)
		}
	})

	// Run under -race: two workers commit on their own pages, and dump now
	// and then, while the set is swapped between full, partial and empty
	// under them.
	t.Run("swap-while-running", func(t *testing.T) {
		db := attachDB(t)
		if err := workload.Seed(db, 0); err != nil {
			t.Fatal(err)
		}
		mgr := txn.NewManager(db)
		full := fullSet(db, t.TempDir(), false)
		sets := []hooks.Set{full, {}, {Observer: full.Observer, Prof: full.Prof, Debt: full.Debt}, {Observer: full.Observer, Audit: full.Audit}}
		var stop atomic.Bool
		var commits atomic.Int64
		var wg sync.WaitGroup
		const workers = 2
		errs := make(chan error, workers)
		for nd := machine.NodeID(0); nd < workers; nd++ {
			wg.Add(1)
			go func(nd machine.NodeID) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					tx, err := mgr.Begin(nd)
					if err == nil {
						rid := heap.RID{Page: storage.PageID(nd + 1), Slot: uint16(i % db.Store.Layout.SlotsPerPage())}
						if err = tx.Write(rid, []byte{2, byte(nd), byte(i)}); err == nil {
							err = tx.Commit()
						}
					}
					if err != nil {
						errs <- fmt.Errorf("node %d txn %d: %w", nd, i, err)
						return
					}
					commits.Add(1)
					if i%64 == 0 {
						// A dump takes the recorder's mutex, then the
						// engine's for stats.txt, while Attach sets the
						// recorder's sources.
						if _, err := db.DumpFlight("swap"); err != nil {
							errs <- err
							return
						}
					}
					runtime.Gosched() // on one CPU, give the swapper its turn
				}
			}(nd)
		}
		for i := 0; i < 200 || (commits.Load() < 200 && len(errs) == 0); i++ {
			set := sets[i%len(sets)]
			db.Attach(set)
			runtime.Gosched()
			if set.Observer != nil {
				// Hold a set that carries the observer until a commit has run
				// under it from start to end: each worker may be inside a
				// commit that read the hooks before this Attach, so the next
				// one after those is certain to have read them after it.
				for seen := commits.Load(); commits.Load() <= seen+workers && len(errs) == 0; {
					runtime.Gosched()
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if full.Observer.Count(obs.KindTxnCommit) == 0 {
			t.Error("no commit was observed across the attachments of the full set")
		}
	})
}

// TestSpineFanOut: the hook set is the observer's one sink and hands every
// event on to each consumer that folds the stream. A set of the observer, the
// waterfall recorder and the debt tracker — no residency model — feeds both,
// and what each folds on one deterministic crash episode is the same whether
// it rides alone with an observer, beside the other, or inside the full set.
func TestSpineFanOut(t *testing.T) {
	type folds struct {
		completed int64
		totals    []int64
		coverage  float64
		debt      debt.Snapshot
	}
	run := func(set func(db *recovery.DB) hooks.Set) folds {
		db := newDB(t, recovery.VolatileSelectiveRedo)
		s := set(db)
		db.Attach(s)
		crashedRun(t, db)
		f := folds{completed: s.Waterfall.Completed(), coverage: -1}
		if s.Waterfall != nil {
			totals := s.Waterfall.Totals()
			f.totals = totals[:]
			f.coverage, _, _ = s.Waterfall.Coverage()
		}
		f.debt = s.Debt.Snapshot()
		// Wall MTTRs are host time, not the fold.
		f.debt.LastWallNS, f.debt.AvgWallNS, f.debt.EwmaWallNS = 0, 0, 0
		return f
	}
	newWf := func(db *recovery.DB) *waterfall.Recorder {
		return waterfall.New(waterfall.Config{Nodes: db.M.Nodes()})
	}
	newDebt := func(db *recovery.DB) *debt.Tracker {
		return debt.New(debt.Config{DiskReadNS: db.M.Config().Cost.DiskRead, LogForceNS: db.LogForceCost()})
	}
	wfAlone := run(func(db *recovery.DB) hooks.Set {
		return hooks.Set{Observer: obs.NewWithCapacity(256), Waterfall: newWf(db)}
	})
	debtAlone := run(func(db *recovery.DB) hooks.Set {
		return hooks.Set{Observer: obs.NewWithCapacity(256), Debt: newDebt(db)}
	})
	both := run(func(db *recovery.DB) hooks.Set {
		return hooks.Set{Observer: obs.NewWithCapacity(256), Waterfall: newWf(db), Debt: newDebt(db)}
	})
	full := run(func(db *recovery.DB) hooks.Set { return fullSet(db, t.TempDir(), false) })

	if wfAlone.completed == 0 || debtAlone.debt.Appends == 0 || debtAlone.debt.Recoveries == 0 {
		t.Fatalf("a consumer saw no traffic: %d waterfalls, %d appends, %d recoveries",
			wfAlone.completed, debtAlone.debt.Appends, debtAlone.debt.Recoveries)
	}
	for name, f := range map[string]folds{"observer+waterfall+debt": both, "full set": full} {
		if f.completed != wfAlone.completed || !reflect.DeepEqual(f.totals, wfAlone.totals) || f.coverage != wfAlone.coverage {
			t.Errorf("%s: waterfall folded %d txns %v coverage %v; alone %d %v %v", name,
				f.completed, f.totals, f.coverage, wfAlone.completed, wfAlone.totals, wfAlone.coverage)
		}
		if !reflect.DeepEqual(f.debt, debtAlone.debt) {
			t.Errorf("%s: debt folded\n  %+v\nalone\n  %+v", name, f.debt, debtAlone.debt)
		}
	}
}

// TestAttachFoldersNeedAnObserver: the waterfall recorder and the debt
// tracker fold the observer's events, so a set that brings either without an
// observer is refused, as one whose auditor reads another model is.
func TestAttachFoldersNeedAnObserver(t *testing.T) {
	db := newDB(t, recovery.VolatileSelectiveRedo)
	for name, set := range map[string]hooks.Set{
		"waterfall": {Waterfall: waterfall.New(waterfall.Config{})},
		"debt":      {Debt: debt.New(debt.Config{})},
		"audit":     {Deps: deps.New(nil), Audit: audit.New(deps.New(nil), audit.Config{})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Attach of a %s set without its prerequisite did not panic", name)
				}
			}()
			db.Attach(set)
		}()
	}
	if *db.Hooks() != (hooks.Set{}) {
		t.Error("a refused Attach left consumers attached")
	}
}
