package harness

import (
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/hooks"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

// exposure is one (transaction, line, destination) either judge flagged.
type exposure struct {
	txn      int64
	line, to int32
}

// unloggedEdges is the explainer's side: every dependency edge of the given
// live transactions with no log record behind it, and the simulated time it
// was discovered at.
func unloggedEdges(tr *deps.Tracker, txs []*txn.Txn) map[exposure]int64 {
	asked := map[int64]bool{}
	for _, tx := range txs {
		asked[int64(tx.ID())] = true
	}
	out := map[exposure]int64{}
	for _, tx := range tr.Graph().Txns {
		for _, e := range tx.Deps {
			if e.Unlogged && asked[e.Txn] {
				out[exposure{e.Txn, e.Line, e.To}] = e.Sim
			}
		}
	}
	return out
}

// unloggedViolations is the auditor's side, read off the transactions'
// trails (the violation list itself is capped).
func unloggedViolations(t *testing.T, a *audit.Auditor, txs []*txn.Txn) map[exposure]bool {
	t.Helper()
	out := map[exposure]bool{}
	for _, tx := range txs {
		trail, ok := a.Trail(int64(tx.ID()))
		if !ok {
			t.Fatalf("no trail for %v", tx.ID())
		}
		if trail.DroppedSteps != 0 {
			t.Fatalf("%s dropped %d trail steps; raise the auditor's trail-step cap", trail.Name, trail.DroppedSteps)
		}
		for _, s := range trail.Steps {
			if s.Kind == "violation" && s.Note == audit.ViolationUnlogged {
				out[exposure{trail.Txn, s.Line, s.To}] = true
			}
		}
	}
	return out
}

// TestJudgesAgree runs the E17/E19 line-hopping schedule with the explainer
// and the auditor attached together. They read one residency model, so
// before any crash the unlogged dependency edges and the unlogged-exposure
// violations are the same set — empty under the real protocols, 900 over
// twelve committed rounds and the in-flight one under the ablated control. After the crash they part only where the
// auditor means to: it suspends the LBM check for the recovery window, the
// explainer keeps discovering edges through it. The hopped lines all die
// with node 3, so the window's edge comes from a bystander line: node 0
// commits a write to it, a transaction of node 1 leaves an update there in
// flight, and redo replays node 0's record on node 0, taking the line from
// node 1 mid-recovery.
func TestJudgesAgree(t *testing.T) {
	const rounds = 12
	for _, tc := range []struct {
		proto recovery.Protocol
		// want is the unlogged exposures both judges flag before the crash;
		// window the unlogged edges recovery's own line traffic adds, which
		// only the explainer counts.
		want, window int
	}{
		{recovery.StableEager, 0, 0},
		{recovery.VolatileSelectiveRedo, 0, 0},
		{recovery.AblatedNoLBM, 900, 1},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			db, err := seededDB(tc.proto, 4, 4, defaultPages, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr := deps.New(nil)
			a := audit.New(tr, audit.Config{
				Stable: tc.proto.StableLBM() && db.M.Config().Coherency == machine.WriteInvalidate,
			})
			db.Attach(hooks.Set{Observer: obs.NewWithCapacity(8192), Deps: tr, Audit: a})
			mgr := txn.NewManager(db)

			compare := func(when string, txs []*txn.Txn, inWindow func(sim int64) bool) (agreed, windowed int) {
				t.Helper()
				edges, viols := unloggedEdges(tr, txs), unloggedViolations(t, a, txs)
				for x := range viols {
					if _, ok := edges[x]; !ok {
						t.Errorf("%s: violation %+v has no unlogged edge", when, x)
					}
				}
				for x, sim := range edges {
					switch {
					case viols[x]:
						agreed++
					case inWindow(sim):
						windowed++
					default:
						t.Errorf("%s: unlogged edge %+v (sim %d) has no violation", when, x, sim)
					}
				}
				return agreed, windowed
			}
			never := func(int64) bool { return false }
			var txs []*txn.Txn

			// An edge leaves the graph when its transaction settles, and
			// commits move lines too: each transaction is compared at the
			// last moment it is live, just before its own commit.
			total := 0
			for round := 0; round <= rounds; round++ {
				txs, err = depCensusRound(db, mgr, round, false)
				if err != nil {
					t.Fatal(err)
				}
				if round == rounds {
					// The hazard round stays in flight; node 3 holds every
					// hopped line.
					n, _ := compare("before the crash", txs, never)
					total += n
					break
				}
				for i, tx := range txs {
					n, _ := compare("before commit", txs[i:i+1], never)
					total += n
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if total != tc.want {
				t.Errorf("unlogged exposures both judges flagged = %d, want %d", total, tc.want)
			}
			if c, sum := tr.Census(), a.Summary(); c.UnloggedEdges != total || sum.ViolationsByKind[audit.ViolationUnlogged] != total {
				t.Errorf("census: %d unlogged edges, %d unlogged-exposure violations; the sets held %d",
					c.UnloggedEdges, sum.ViolationsByKind[audit.ViolationUnlogged], total)
			}

			bystander := heap.RID{Page: depCensusLines + 1, Slot: 0}
			committed, err := mgr.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := committed.Write(bystander, []byte{1}); err != nil {
				t.Fatal(err)
			}
			if err := committed.Commit(); err != nil {
				t.Fatal(err)
			}
			inFlight, err := mgr.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := inFlight.Write(heap.RID{Page: bystander.Page, Slot: 1}, []byte{2}); err != nil {
				t.Fatal(err)
			}

			crashSim := db.M.MaxClock()
			db.Crash(3)
			if _, err := db.Recover([]machine.NodeID{3}); err != nil {
				t.Fatal(err)
			}
			recoveredSim := db.M.MaxClock()
			_, windowed := compare("after recovery", append(txs[:3:3], inFlight), func(sim int64) bool {
				return sim >= crashSim && sim <= recoveredSim
			})
			if windowed != tc.window {
				t.Errorf("unlogged edges discovered inside the recovery window = %d, want %d", windowed, tc.window)
			}
		})
	}
}
