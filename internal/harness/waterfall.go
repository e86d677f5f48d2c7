package harness

import (
	"errors"
	"fmt"
	"time"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/hooks"
	"smdb/internal/obs/waterfall"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// Experiment E22 is the latency-waterfall attribution census: the depcensus
// convoy schedule (E17's line-hopping writes, every write stealing a line
// from the previous uncommitted writer) runs under each real protocol with
// the waterfall recorder attached, extended with a record-lock conflict, an
// in-flight round, the node-3 crash, a frozen-window probe, and recovery —
// so every cause the recorder knows (compute, lock-wait, line-wait, fetch,
// log-append, log-force, frozen, undo) has a chance to appear. The gate is
// attribution coverage: at least waterfallMinCoverage of every completed
// transaction's measured sim latency must be explained by some cause. A
// second sweep times the committed rounds observed vs observed and recorded
// (E19-style wall-clock ns/update) to report the recorder's overhead.
type WaterfallPoint struct {
	Protocol recovery.Protocol
	// Completed counts closed waterfalls; Coverage is attributed/total sim
	// latency across them (the gated number).
	Completed int64
	Coverage  float64
	// ByCause is the attributed sim-ns per cause, in obs.Cause order.
	ByCause []int64
	// Slow counts tail-sampled waterfalls; Convoyed the slow samples carrying
	// at least one line-wait segment with a holder txn id (the convoy
	// explanation the tentpole promises).
	Slow, Convoyed int
	// Phases counts recovery phases the live progress observer closed.
	Phases int
}

// WaterfallOverheadPoint is one arm of the off/on overhead sweep.
type WaterfallOverheadPoint struct {
	Recorded bool
	Updates  int
	WallNS   int64
}

// NSPerUpdate is the timed cost of one write under this arm.
func (p WaterfallOverheadPoint) NSPerUpdate() int64 {
	if p.Updates == 0 {
		return 0
	}
	return p.WallNS / int64(p.Updates)
}

// WaterfallResult is the per-protocol census plus the overhead sweep.
type WaterfallResult struct {
	Points   []WaterfallPoint
	Overhead []WaterfallOverheadPoint
}

// waterfallMinCoverage is the attribution-coverage gate: below this, the
// decomposition is lying by omission and RunWaterfall fails.
const waterfallMinCoverage = 0.9

// waterfallOverheadRounds is how many committed line-hopping rounds the
// overhead arms time (each is depCensusLines lines x 4 nodes writes).
const waterfallOverheadRounds = 6

// RunWaterfall runs E22.
func RunWaterfall(seed int64) (*WaterfallResult, error) {
	_ = seed // the schedule is deterministic; kept for the bench's uniform signature
	res := &WaterfallResult{}
	for _, proto := range recovery.Protocols() {
		p, _, err := waterfallArm(proto, hooks.Set{Observer: obs.NewWithCapacity(256), Waterfall: waterfall.New(waterfall.Config{})})
		if err != nil {
			return nil, fmt.Errorf("waterfall %v: %w", proto, err)
		}
		if p.Coverage < waterfallMinCoverage {
			return nil, fmt.Errorf("waterfall %v: attribution coverage %.3f < %.2f (%d completed)",
				proto, p.Coverage, waterfallMinCoverage, p.Completed)
		}
		res.Points = append(res.Points, p)
	}
	for _, recorded := range []bool{false, true} {
		p, err := waterfallOverheadArm(recorded)
		if err != nil {
			return nil, fmt.Errorf("waterfall overhead recorded=%v: %w", recorded, err)
		}
		res.Overhead = append(res.Overhead, p)
	}
	return res, nil
}

// waterfallArm runs one protocol's census cell with set attached (its
// Waterfall is the recorder the point reads) and returns the point and its
// crash's recovery report.
func waterfallArm(proto recovery.Protocol, set hooks.Set) (WaterfallPoint, *recovery.RecoveryReport, error) {
	p := WaterfallPoint{Protocol: proto}
	db, err := seededDB(proto, 4, 4, defaultPages, 0)
	if err != nil {
		return p, nil, err
	}
	wf := set.Waterfall
	db.Attach(set)
	mgr := txn.NewManager(db)

	// Committed convoy rounds: line-waits with holders, appends, forces.
	for round := 0; round < 3; round++ {
		if _, err := depCensusRound(db, mgr, round, true); err != nil {
			return p, nil, err
		}
	}

	// Record-lock conflict: tb queues behind ta's exclusive lock, so its
	// blocked acquire attempts become CauseLockWait segments.
	ta, err := mgr.Begin(0)
	if err != nil {
		return p, nil, err
	}
	tb, err := mgr.Begin(1)
	if err != nil {
		return p, nil, err
	}
	rid := heap.RID{Page: storage.PageID(1), Slot: 0}
	if err := ta.Write(rid, []byte{9, 0}); err != nil {
		return p, nil, err
	}
	for i := 0; i < 3; i++ {
		if err := tb.Write(rid, []byte{9, 1}); !errors.Is(err, txn.ErrBlocked) {
			return p, nil, fmt.Errorf("conflicting write: got %v, want ErrBlocked", err)
		}
	}
	if err := ta.Commit(); err != nil {
		return p, nil, err
	}
	if err := txn.Retry(func() error { return tb.Write(rid, []byte{9, 1}) }); err != nil {
		return p, nil, err
	}
	if err := tb.Commit(); err != nil {
		return p, nil, err
	}

	// Rollback: an aborted writer's undo walk lands under CauseUndo.
	tu, err := mgr.Begin(2)
	if err != nil {
		return p, nil, err
	}
	if err := tu.Write(heap.RID{Page: storage.PageID(7), Slot: 2}, []byte{7, 2}); err != nil {
		return p, nil, err
	}
	if err := tu.Abort(); err != nil {
		return p, nil, err
	}

	// The hazard round: in-flight writes whose latest copies sit on node 3.
	txs, err := depCensusRound(db, mgr, 3, false)
	if err != nil {
		return p, nil, err
	}
	victim := machine.NodeID(3)
	db.Crash(victim)
	// Freeze-window probe: every survivor's next operation stalls against
	// recovery, opening the CauseFrozen span that recovery's clock charges
	// (redo replays onto the survivors) will fill.
	for n := 0; n < 3; n++ {
		if err := txs[n].Write(heap.RID{Page: 1, Slot: uint16(n)}, []byte{8, byte(n)}); !errors.Is(err, txn.ErrBlocked) {
			return p, nil, fmt.Errorf("frozen write node %d: got %v, want ErrBlocked", n, err)
		}
	}
	rep, err := db.Recover([]machine.NodeID{victim})
	if err != nil {
		return p, nil, err
	}
	if proto.IFA() {
		// Survivors resume: the freeze lift closes the CauseFrozen span, then
		// the branches commit. (Under the baseline everything crashed; the
		// survivors' transactions were settled by recovery.)
		for n := 0; n < 3; n++ {
			if err := txn.Retry(func() error {
				return txs[n].Write(heap.RID{Page: 1, Slot: uint16(n)}, []byte{8, byte(n)})
			}); err != nil {
				return p, nil, err
			}
			if err := txs[n].Commit(); err != nil {
				return p, nil, err
			}
		}
	}

	p.Completed = wf.Completed()
	p.Coverage, _, _ = wf.Coverage()
	totals := wf.Totals()
	p.ByCause = totals[:]
	slow := wf.Slow(0)
	p.Slow = len(slow)
	for _, w := range slow {
		for _, s := range w.Segments {
			if s.Cause == obs.CauseLineWait && s.Holder != 0 {
				p.Convoyed++
				break
			}
		}
	}
	p.Phases = len(wf.Progress().Snapshot())
	if p.Completed == 0 {
		return p, nil, fmt.Errorf("no waterfalls completed")
	}
	if p.Slow == 0 {
		return p, nil, fmt.Errorf("tail sampler retained nothing")
	}
	if p.Phases == 0 {
		return p, nil, fmt.Errorf("recovery progress recorded no phases")
	}
	return p, rep, nil
}

// waterfallOverheadArm times the committed convoy rounds with an observer, and
// with or without the recorder folding its events (VolatileSelectiveRedo, the
// busiest real protocol: undo tags plus volatile LBM).
func waterfallOverheadArm(recorded bool) (WaterfallOverheadPoint, error) {
	p := WaterfallOverheadPoint{Recorded: recorded}
	db, err := seededDB(recovery.VolatileSelectiveRedo, 4, 4, defaultPages, 0)
	if err != nil {
		return p, err
	}
	set := hooks.Set{Observer: obs.NewWithCapacity(256)}
	if recorded {
		set.Waterfall = waterfall.New(waterfall.Config{Nodes: db.M.Nodes()})
	}
	db.Attach(set)
	mgr := txn.NewManager(db)
	start := time.Now()
	for round := 0; round < waterfallOverheadRounds; round++ {
		if _, err := depCensusRound(db, mgr, round, true); err != nil {
			return p, err
		}
	}
	p.WallNS = time.Since(start).Nanoseconds()
	p.Updates = waterfallOverheadRounds * depCensusLines * 4
	return p, nil
}

// Table renders the census and the overhead sweep.
func (r *WaterfallResult) Table() string {
	t := &tableWriter{header: []string{
		"protocol", "txns", "coverage", "compute", "lock-wait", "line-wait",
		"fetch", "log-force", "frozen", "undo", "slow", "convoyed", "phases",
	}}
	for _, p := range r.Points {
		var attr int64
		for _, v := range p.ByCause {
			attr += v
		}
		share := func(c obs.Cause) string {
			if attr == 0 {
				return "-"
			}
			return pct(float64(p.ByCause[c]) / float64(attr))
		}
		t.addRow(
			p.Protocol.String(),
			fmt.Sprintf("%d", p.Completed),
			pct(p.Coverage),
			share(obs.CauseCompute),
			share(obs.CauseLockWait),
			share(obs.CauseLineWait),
			share(obs.CauseFetch),
			share(obs.CauseLogForce),
			share(obs.CauseFrozen),
			share(obs.CauseUndo),
			fmt.Sprintf("%d", p.Slow),
			fmt.Sprintf("%d", p.Convoyed),
			fmt.Sprintf("%d", p.Phases),
		)
	}
	out := t.String()

	ot := &tableWriter{header: []string{"waterfall", "updates", "ns/update", "overhead"},
		host: []string{"ns/update", "overhead"}}
	var bare int64
	for _, p := range r.Overhead {
		if !p.Recorded {
			bare = p.NSPerUpdate()
		}
	}
	for _, p := range r.Overhead {
		overhead := "-"
		if p.Recorded && bare > 0 {
			overhead = pct(float64(p.NSPerUpdate()-bare) / float64(bare))
		}
		ot.addRow(mark(p.Recorded), fmt.Sprintf("%d", p.Updates),
			fmt.Sprintf("%d", p.NSPerUpdate()), overhead)
	}
	return out + "\n" + ot.String()
}
