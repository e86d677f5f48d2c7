package machine

import (
	"runtime"
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/waterfall"
)

// TestLineWaitNamesItsHolder: a line wait is an event that carries the node
// that held the line, and the waterfall recorder, folding the observer's
// events, names that node's transaction. Two nodes, one transaction each:
// a contended wait (ta inside its operation holds the line while tb sleeps
// on the stripe's condvar), a wait queued in simulated time behind a release
// ta made in an operation it has since closed, and a wait behind a second
// goroutine of tb's own node, which names no one.
func TestLineWaitNamesItsHolder(t *testing.T) {
	m := newTestMachine(t, 2)
	base := m.Alloc(3)
	for l := base; l < base+3; l++ {
		install(t, m, 0, l)
	}
	o := obs.New()
	wf := waterfall.New(waterfall.Config{Nodes: 2})
	o.SetSink(wf)
	m.SetHooks(o)
	const ta, tb = 1, 2
	// The transactions' brackets are events on the same observer.
	mark := func(k obs.Kind, nd NodeID, txn int64) { o.Instant(k, int32(nd), m.Clock(nd), txn, 0) }
	mark(obs.KindTxnBegin, 0, ta)
	mark(obs.KindTxnBegin, 1, tb)
	mark(obs.KindOpStart, 0, ta)
	mark(obs.KindOpStart, 1, tb)

	// waitBehind runs get (a GetLine that must block) on its own goroutine,
	// releases the line as holder once get is parked, and waits for get to
	// take and release it.
	waitBehind := func(holder NodeID, l LineID, get func() error) {
		t.Helper()
		before := m.Stats().LineLockContended
		done := make(chan error, 1)
		go func() { done <- get() }()
		for m.Stats().LineLockContended == before {
			runtime.Gosched()
		}
		if err := m.ReleaseLine(holder, l); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	getRelease := func(nd NodeID, l LineID) func() error {
		return func() error {
			if err := m.GetLine(nd, l); err != nil {
				return err
			}
			return m.ReleaseLine(nd, l)
		}
	}

	// Contended: ta holds the line while tb asks for it.
	contended := base
	if err := m.GetLine(0, contended); err != nil {
		t.Fatal(err)
	}
	waitBehind(0, contended, getRelease(1, contended))

	// Queued: ta's node runs ahead in simulated time, releases the line and
	// closes its operation; tb, behind, starts only at that release.
	queued := base + 1
	if err := m.GetLine(0, queued); err != nil {
		t.Fatal(err)
	}
	m.AdvanceClock(0, 1_000_000)
	if err := m.ReleaseLine(0, queued); err != nil {
		t.Fatal(err)
	}
	mark(obs.KindOpEnd, 0, ta)
	if err := getRelease(1, queued)(); err != nil {
		t.Fatal(err)
	}

	// Own node: another goroutine of node 1 holds the line tb asks for.
	own := base + 2
	if err := m.GetLine(1, own); err != nil {
		t.Fatal(err)
	}
	waitBehind(1, own, getRelease(1, own))

	mark(obs.KindOpEnd, 1, tb)
	mark(obs.KindTxnCommit, 0, ta)
	mark(obs.KindTxnCommit, 1, tb)

	want := map[LineID]struct {
		contended bool
		node      int64
		txn       int64
	}{contended: {true, 0, ta}, queued: {false, 0, ta}, own: {true, 1, 0}}
	for _, e := range o.Events() {
		if e.Kind != obs.KindLineLockWait {
			continue
		}
		w, ok := want[LineID(e.A)]
		if !ok || e.Node != 1 || (e.B == 0) != w.contended || e.C != w.node || e.Dur <= 0 {
			t.Errorf("line-wait event %+v, want node 1 waiting %+v", e, w)
		}
	}
	if got := o.Count(obs.KindLineLockWait); got != int64(len(want)) {
		t.Errorf("%d line-wait events, want %d", got, len(want))
	}
	w := wf.Lookup(tb)
	if w == nil {
		t.Fatal("tb's waterfall not retained")
	}
	named := map[LineID]int64{}
	for _, s := range w.Segments {
		if s.Cause == obs.CauseLineWait {
			named[LineID(s.Detail)] = s.Holder
		}
	}
	for l, x := range want {
		if h, ok := named[l]; !ok || h != x.txn {
			t.Errorf("line %d: wait segment holder %d (recorded %v), want %d", l, h, ok, x.txn)
		}
	}
}
