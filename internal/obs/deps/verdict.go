package deps

import (
	"fmt"
	"sort"

	"smdb/internal/obs"
)

// The IFA explainer: at every crash the tracker renders, per in-flight
// transaction, a human-readable verdict grounding the recovery outcome in
// concrete coherency events — which migration exposed which update to which
// failure domain, and what log coverage (stable, volatile, none) neutralizes
// the dependency. The chaos harness asserts these verdicts against its IFA
// checker: every recovery abort must correspond to a crashed verdict, and
// every "surviving transaction's update lost" violation to a Doomed one.

// Verdict is one transaction's explainer output for one crash.
type Verdict struct {
	// Txn is the transaction id; Name its engine-format rendering ("t3.5").
	Txn  int64
	Name string
	// Node is the transaction's home node; Sim the crash's simulated time.
	Node int32
	Sim  int64
	// Crashed is true when the transaction's own node died: recovery will
	// abort it (or settle it committed if its commit record was stable).
	Crashed bool
	// Doomed is true for a *survivor* whose update was destroyed with no
	// log record anywhere — the unlogged cross-node dependency hazard LBM
	// exists to prevent. Real protocols never produce it; the ablated
	// no-LBM control does.
	Doomed bool
	// Text is the one-line verdict; Evidence the per-update detail citing
	// the concrete residency events.
	Text     string
	Evidence []string
}

func (v Verdict) String() string { return v.Text }

func lineName(l int32) string { return fmt.Sprintf("line 0x%X", l) }

// coverage describes a write's log coverage from the perspective of its
// home node's forced horizon.
func (t *Tracker) coverageLocked(ts *txnState, w write) string {
	switch {
	case w.lsn == 0:
		return "no log record (deferred logging)"
	case w.lsn <= t.forced[ts.node]:
		return fmt.Sprintf("stable log record LSN %d", w.lsn)
	default:
		return fmt.Sprintf("volatile log record LSN %d on node %d", w.lsn, ts.node)
	}
}

// lastExposure finds the most recent residency step that moved line l's
// content into one of the crashed nodes, for citation in evidence.
func lastExposure(l *lineState, crashed map[int32]bool) (ResidencyStep, bool) {
	for i := len(l.history) - 1; i >= 0; i-- {
		s := l.history[i]
		switch s.Kind {
		case "migrate", "replicate", "downgrade", "invalidate", "install":
			if crashed[s.To] {
				return s, true
			}
		}
	}
	return ResidencyStep{}, false
}

// sortedWrites returns a transaction's writes in slot order (deterministic
// evidence ordering).
func sortedWrites(ts *txnState) []write {
	out := make([]write, 0, len(ts.writes))
	for _, w := range ts.writes {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].slot < out[j].slot })
	return out
}

// explainLocked computes the verdicts for one crash: one per newly-crashed
// transaction (newly, in id order), one per surviving in-flight transaction
// that has updates or dependencies to account for.
func (t *Tracker) explainLocked(crash Crash, lostSet map[int32]bool, newly []*txnState) []Verdict {
	crashedNodes := make(map[int32]bool, len(crash.Nodes))
	for _, n := range crash.Nodes {
		crashedNodes[n] = true
	}
	var out []Verdict
	for _, ts := range newly {
		out = append(out, t.explainCrashedLocked(ts, crash, lostSet, crashedNodes))
	}

	var survivors []*txnState
	for _, ts := range t.txns {
		if ts.status == statusActive && (len(ts.writes) > 0 || len(ts.edges) > 0) {
			survivors = append(survivors, ts)
		}
	}
	sortTxns(survivors)
	for _, ts := range survivors {
		out = append(out, t.explainSurvivorLocked(ts, crash, lostSet, crashedNodes))
	}
	return out
}

// explainCrashedLocked: the transaction's own node died. Recovery aborts it
// unless its commit record was already stable; its updates that migrated to
// survivors must be undone there, which the evidence pins to the concrete
// coherency events.
func (t *Tracker) explainCrashedLocked(ts *txnState, crash Crash, lostSet map[int32]bool, crashedNodes map[int32]bool) Verdict {
	var stable, volatileOnly, unlogged int
	for _, w := range ts.writes {
		switch {
		case w.lsn == 0:
			unlogged++
		case w.lsn <= t.forced[ts.node]:
			stable++
		default:
			volatileOnly++
		}
	}
	v := Verdict{
		Txn: ts.id, Name: tname(ts.id), Node: ts.node, Sim: crash.Sim, Crashed: true,
		Text: fmt.Sprintf(
			"%s aborted: node %d crashed at sim t=%s while it was active (%d updates in flight: %d stable-logged, %d volatile-only, %d unlogged)",
			tname(ts.id), ts.node, obs.FormatNS(crash.Sim), len(ts.writes), stable, volatileOnly, unlogged),
	}
	for _, w := range sortedWrites(ts) {
		l := t.lines[w.line]
		switch {
		case l != nil && lostSet[w.line]:
			v.Evidence = append(v.Evidence, fmt.Sprintf(
				"update to %s died with the crash (no surviving copy); %s",
				lineName(w.line), t.coverageLocked(ts, w)))
		case l != nil && l.holders != 0:
			step, ok := lastMove(l, ts.node)
			where := "a surviving cache"
			if ok {
				where = fmt.Sprintf("node %d by %s at sim t=%s", step.To, step.Kind, obs.FormatNS(step.Sim))
			}
			v.Evidence = append(v.Evidence, fmt.Sprintf(
				"uncommitted update to %s migrated to %s; recovery must undo it there (%s)",
				lineName(w.line), where, t.coverageLocked(ts, w)))
		default:
			v.Evidence = append(v.Evidence, fmt.Sprintf(
				"update to %s stayed in the crashed failure domain; %s",
				lineName(w.line), t.coverageLocked(ts, w)))
		}
	}
	return v
}

// lastMove finds the most recent step that placed line content on a node
// other than home (the transaction's own node).
func lastMove(l *lineState, home int32) (ResidencyStep, bool) {
	for i := len(l.history) - 1; i >= 0; i-- {
		s := l.history[i]
		switch s.Kind {
		case "migrate", "replicate", "downgrade":
			if s.To != home {
				return s, true
			}
		}
	}
	return ResidencyStep{}, false
}

// explainSurvivorLocked: the transaction's node survived, so under IFA it
// must continue untouched. Each of its updates is classified against the
// crash: lost-and-unlogged (doomed — the LBM hazard), lost-but-logged
// (selective redo restores it from the surviving log), exposed-but-alive
// (a surviving copy remains), or untouched.
func (t *Tracker) explainSurvivorLocked(ts *txnState, crash Crash, lostSet map[int32]bool, crashedNodes map[int32]bool) Verdict {
	v := Verdict{
		Txn: ts.id, Name: tname(ts.id), Node: ts.node, Sim: crash.Sim,
	}
	doomed := 0
	for _, w := range sortedWrites(ts) {
		l := t.lines[w.line]
		if l == nil {
			continue
		}
		if lostSet[w.line] {
			step, ok := lastExposure(l, crashedNodes)
			how := "its sole copy was in a crashed cache"
			if ok {
				how = fmt.Sprintf("sole copy of %s %sd to crashed node %d at sim t=%s",
					lineName(w.line), step.Kind, step.To, obs.FormatNS(step.Sim))
			}
			if w.lsn == 0 {
				doomed++
				v.Evidence = append(v.Evidence, fmt.Sprintf(
					"unlogged cross-node dependency: %s; no log record exists — the update is lost and cannot be redone (IFA violation expected)", how))
			} else {
				v.Evidence = append(v.Evidence, fmt.Sprintf(
					"%s; %s survives on its home node, so redo restores the update",
					how, t.coverageLocked(ts, w)))
			}
			continue
		}
		if edge, ok := edgeTo(ts, w.line, crashedNodes); ok {
			v.Evidence = append(v.Evidence, fmt.Sprintf(
				"a copy of %s reached crashed node %d (%s at sim t=%s), but a surviving copy remains — no loss",
				lineName(w.line), edge.To, edge.Kind, obs.FormatNS(edge.Sim)))
		}
	}
	v.Doomed = doomed > 0
	switch {
	case v.Doomed:
		v.Text = fmt.Sprintf(
			"%s survivor DOOMED: %d update(s) destroyed by the crash of node(s) %v at sim t=%s with no log record — the unlogged cross-node dependency LBM prevents",
			tname(ts.id), doomed, crash.Nodes, obs.FormatNS(crash.Sim))
	case len(v.Evidence) > 0:
		v.Text = fmt.Sprintf(
			"%s survivor unaffected: crash of node(s) %v at sim t=%s touched its lines but every update is covered",
			tname(ts.id), crash.Nodes, obs.FormatNS(crash.Sim))
	default:
		v.Text = fmt.Sprintf(
			"%s survivor clean: no dependency on crashed node(s) %v",
			tname(ts.id), crash.Nodes)
	}
	return v
}

// edgeTo returns the transaction's dependency edge for line into any crashed
// node, if one exists.
func edgeTo(ts *txnState, line int32, crashedNodes map[int32]bool) (Edge, bool) {
	for _, e := range ts.edges {
		if e.Line == line && crashedNodes[e.To] {
			return e, true
		}
	}
	return Edge{}, false
}
