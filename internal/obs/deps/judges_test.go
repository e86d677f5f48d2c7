package deps_test

import (
	"math/rand"
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/deps"
)

// TestJudgesReadOneModel feeds a seeded random stream — writes, every kind
// of coherency traffic, log forces, commits — to a tracker with an auditor
// reading it, and asserts what one model read by two judges guarantees: at
// every commit, and at the end, a transaction's unlogged dependency edges
// and its unlogged-exposure violations are the same (line, destination) set.
// Each transaction logs all of its updates or none, as every protocol does.
func TestJudgesReadOneModel(t *testing.T) {
	type key struct{ line, to int32 }
	const nodes, lines = 4, 6
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := deps.New(nil)
		a := audit.New(tr, audit.Config{})
		checked, flagged := 0, 0
		check := func(id int64) {
			t.Helper()
			edges := map[key]bool{}
			for _, tx := range tr.Graph().Txns {
				for _, e := range tx.Deps {
					if tx.ID == id && e.Unlogged {
						edges[key{e.Line, e.To}] = true
					}
				}
			}
			trail, ok := a.Trail(id)
			if !ok || trail.DroppedSteps != 0 {
				t.Fatalf("seed %d: trail of %d = %v, %d steps dropped", seed, id, ok, trail.DroppedSteps)
			}
			viols := map[key]bool{}
			for _, s := range trail.Steps {
				if s.Kind == "violation" && s.Note == audit.ViolationUnlogged {
					viols[key{s.Line, s.To}] = true
				}
			}
			if len(edges) != len(viols) {
				t.Errorf("seed %d: %s has %d unlogged edges, %d unlogged-exposure violations", seed, trail.Name, len(edges), len(viols))
			}
			for k := range edges {
				if !viols[k] {
					t.Errorf("seed %d: %s: unlogged edge %+v has no violation", seed, trail.Name, k)
				}
			}
			checked++
			flagged += len(edges)
		}

		var live []int64 // in begin order, so the seed fixes the stream
		lsn := make([]int64, nodes)
		var seq, sim int64
		for step := 0; step < 4000; step++ {
			sim += int64(1 + rng.Intn(50))
			node := int32(rng.Intn(nodes))
			line := int32(rng.Intn(lines))
			switch op := rng.Intn(10); {
			case op < 4: // a write by some live transaction of node, or a new one
				var id int64
				for _, cand := range live {
					if int32(cand>>48) == node && rng.Intn(2) == 0 {
						id = cand
					}
				}
				if id == 0 {
					seq++
					id = int64(node)<<48 | seq
					live = append(live, id)
					tr.OnEvent(obs.Event{Kind: obs.KindTxnBegin, Node: node, Sim: sim, A: id})
				}
				var rec int64
				if id%2 == 0 { // even transactions log, odd ones defer
					lsn[node]++
					rec = lsn[node]
				}
				tr.OnEvent(obs.Event{Kind: obs.KindInvalidate, Node: node, Sim: sim, A: int64(line)})
				tr.NoteWrite(id, node, line, int64(line)<<16|int64(rng.Intn(4)), rec, sim)
			case op < 8:
				kind := []obs.Kind{obs.KindMigrate, obs.KindReplicate, obs.KindDowngrade}[rng.Intn(3)]
				tr.OnEvent(obs.Event{Kind: kind, Node: node, Sim: sim, A: int64(line), B: int64(rng.Intn(nodes))})
			case op < 9:
				tr.OnEvent(obs.Event{Kind: obs.KindWALForce, Node: node, Sim: sim, A: 1, B: lsn[node]})
			case len(live) > 0:
				i := rng.Intn(len(live))
				id := live[i]
				check(id)
				tr.OnEvent(obs.Event{Kind: obs.KindTxnCommit, Node: int32(id >> 48), Sim: sim, A: id})
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, id := range live {
			check(id)
		}
		if c := tr.Census(); c.UnloggedEdges != flagged || a.Summary().ViolationsByKind[audit.ViolationUnlogged] != flagged {
			t.Errorf("seed %d: census %d unlogged edges, %d violations; the per-transaction sets held %d",
				seed, c.UnloggedEdges, a.ViolationCount(), flagged)
		}
		if checked == 0 || flagged == 0 {
			t.Errorf("seed %d: compared %d transactions, %d exposures: the stream exercised nothing", seed, checked, flagged)
		}
	}
}
