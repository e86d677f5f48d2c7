package machine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func newTestMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	return New(Config{Nodes: nodes, LineSize: 128, Lines: 256})
}

// install materializes a zeroed line on node nd.
func install(t *testing.T, m *Machine, nd NodeID, l LineID) {
	t.Helper()
	if err := m.Install(nd, l, make([]byte, m.LineSize())); err != nil {
		t.Fatalf("Install(%d, %d): %v", nd, l, err)
	}
}

func TestNewDefaults(t *testing.T) {
	m := New(Config{})
	if m.Nodes() != 4 {
		t.Errorf("default Nodes = %d, want 4", m.Nodes())
	}
	if m.LineSize() != 128 {
		t.Errorf("default LineSize = %d, want 128", m.LineSize())
	}
	if got := m.Config().Cost.RemoteFetch; got != DefaultCostModel().RemoteFetch {
		t.Errorf("default RemoteFetch = %d, want %d", got, DefaultCostModel().RemoteFetch)
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 65},
		{Nodes: -1},
		{LineSize: 4},
		{Lines: -5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAlloc(t *testing.T) {
	m := newTestMachine(t, 2)
	a := m.Alloc(10)
	b := m.Alloc(5)
	if a != 0 || b != 10 {
		t.Errorf("Alloc: got %d, %d; want 0, 10", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("Alloc beyond capacity did not panic")
		}
	}()
	m.Alloc(1 << 20)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	want := []byte("hello, coherent world")
	if err := m.Write(0, l, 7, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := m.Read(0, l, 7, len(want))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("Read = %q, want %q", got, want)
	}
}

func TestAccessLostLine(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	if _, err := m.Read(0, l, 0, 8); !errors.Is(err, ErrLineLost) {
		t.Errorf("Read of never-installed line: err = %v, want ErrLineLost", err)
	}
	if err := m.Write(0, l, 0, []byte{1}); !errors.Is(err, ErrLineLost) {
		t.Errorf("Write of never-installed line: err = %v, want ErrLineLost", err)
	}
	if err := m.GetLine(0, l); !errors.Is(err, ErrLineLost) {
		t.Errorf("GetLine of never-installed line: err = %v, want ErrLineLost", err)
	}
}

func TestBadAddress(t *testing.T) {
	m := newTestMachine(t, 1)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if _, err := m.Read(0, LineID(9999), 0, 1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("out-of-range line: err = %v, want ErrBadAddress", err)
	}
	if err := m.Write(0, l, 120, make([]byte, 20)); !errors.Is(err, ErrBadAddress) {
		t.Errorf("overflowing write: err = %v, want ErrBadAddress", err)
	}
	if _, err := m.Read(0, l, -1, 4); !errors.Is(err, ErrBadAddress) {
		t.Errorf("negative offset: err = %v, want ErrBadAddress", err)
	}
}

// TestMigrationHww1 reproduces history H_ww1: w_x[l]; w_y[l] migrates the
// line from x to y, leaving y with the only copy.
func TestMigrationHww1(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, l, 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got := m.ExclusiveHolder(l); got != 1 {
		t.Errorf("after w_x;w_y exclusive holder = %d, want 1", got)
	}
	if h := m.Holders(l); len(h) != 1 || h[0] != 1 {
		t.Errorf("holders = %v, want [1]", h)
	}
	if s := m.Stats(); s.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", s.Migrations)
	}
	// Node x's write must still be visible (coherent memory).
	got, err := m.Read(1, l, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("line contents = %v, want [1 2]", got)
	}
}

// TestDowngradeHwr reproduces history H_wr: w_x[l]; r_y[l] replicates the
// line, downgrading x from exclusive to shared.
func TestDowngradeHwr(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(1, l, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("r_y = %d, want 7", got[0])
	}
	if ex := m.ExclusiveHolder(l); ex != NoNode {
		t.Errorf("exclusive holder after downgrade = %d, want NoNode", ex)
	}
	if h := m.Holders(l); len(h) != 2 {
		t.Errorf("holders = %v, want both nodes", h)
	}
	s := m.Stats()
	if s.Downgrades != 1 || s.Replications != 1 {
		t.Errorf("Downgrades=%d Replications=%d, want 1,1", s.Downgrades, s.Replications)
	}
}

// TestHww2 reproduces H_ww2: intermediate reads put the line in shared state
// in several caches; the next write invalidates all of them.
func TestHww2(t *testing.T) {
	m := newTestMachine(t, 4)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for nd := NodeID(1); nd < 4; nd++ {
		if _, err := m.Read(nd, l, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Holders(l)) != 4 {
		t.Fatalf("holders = %v, want 4 nodes", m.Holders(l))
	}
	if err := m.Write(3, l, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if h := m.Holders(l); len(h) != 1 || h[0] != 3 {
		t.Errorf("after invalidating write holders = %v, want [3]", h)
	}
	if s := m.Stats(); s.Invalidations != 3 {
		t.Errorf("Invalidations = %d, want 3", s.Invalidations)
	}
}

func TestSilentUpgrade(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	// Read-then-write by the sole holder should not count remote traffic.
	if _, err := m.Read(0, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if err := m.Write(0, l, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.RemoteFetches != 0 || s.Invalidations != 0 || s.Migrations != 0 {
		t.Errorf("sole-holder write caused remote traffic: %+v", s)
	}
	if m.ExclusiveHolder(l) != 0 {
		t.Errorf("holder not upgraded to exclusive")
	}
}

func TestWriteBroadcast(t *testing.T) {
	m := New(Config{Nodes: 3, Lines: 16, Coherency: WriteBroadcast})
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(1, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	// ww sharing: node 1 writes; node 0 keeps its copy (no migration).
	if err := m.Write(1, l, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if h := m.Holders(l); len(h) != 2 {
		t.Errorf("holders = %v, want both", h)
	}
	got, err := m.Read(0, l, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("broadcast did not update node 0's copy: got %d", got[0])
	}
	if s := m.Stats(); s.Migrations != 0 || s.Broadcasts == 0 {
		t.Errorf("write-broadcast stats wrong: %+v", s)
	}
}

func TestCrashDestroysSoleCopy(t *testing.T) {
	m := newTestMachine(t, 3)
	lost := m.Alloc(1)
	shared := m.Alloc(1)
	install(t, m, 0, lost)
	install(t, m, 0, shared)
	if err := m.Write(0, lost, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, shared, 0, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(1, shared, 0, 1); err != nil { // replicate
		t.Fatal(err)
	}
	rep := m.Crash(0)
	if len(rep.Crashed) != 1 || rep.Crashed[0] != 0 {
		t.Fatalf("Crashed = %v", rep.Crashed)
	}
	if len(rep.LostLines) != 1 || rep.LostLines[0] != lost {
		t.Errorf("LostLines = %v, want [%d]", rep.LostLines, lost)
	}
	if len(rep.OrphanedLines) != 1 || rep.OrphanedLines[0] != shared {
		t.Errorf("OrphanedLines = %v, want [%d]", rep.OrphanedLines, shared)
	}
	if m.Resident(lost) {
		t.Error("lost line still resident")
	}
	if !m.Resident(shared) {
		t.Error("shared line should survive on node 1")
	}
	got, err := m.Read(1, shared, 0, 1)
	if err != nil || got[0] != 43 {
		t.Errorf("surviving copy read = %v, %v; want [43]", got, err)
	}
	if _, err := m.Read(1, lost, 0, 1); !errors.Is(err, ErrLineLost) {
		t.Errorf("read of destroyed line: err = %v, want ErrLineLost", err)
	}
	if err := m.Write(0, shared, 0, []byte{1}); !errors.Is(err, ErrNodeDown) {
		t.Errorf("write by crashed node: err = %v, want ErrNodeDown", err)
	}
}

// TestCrashFigure2 is the paper's figure 2 scenario at the machine level:
// t_x's uncommitted update migrates to node y. If x crashes the update
// survives on y (incomplete annulment); if y crashes the update is destroyed
// even though x did not fail.
func TestCrashFigure2(t *testing.T) {
	t.Run("x crashes, update survives on y", func(t *testing.T) {
		m := newTestMachine(t, 2)
		l := m.Alloc(1)
		install(t, m, 0, l)
		if err := m.Write(0, l, 0, []byte{11}); err != nil { // t_x updates r1
			t.Fatal(err)
		}
		if err := m.Write(1, l, 1, []byte{22}); err != nil { // t_y updates r2: line migrates
			t.Fatal(err)
		}
		m.Crash(0)
		got, err := m.Read(1, l, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 11 {
			t.Errorf("t_x's uncommitted update should survive on y: got %v", got)
		}
	})
	t.Run("y crashes, x's update is destroyed", func(t *testing.T) {
		m := newTestMachine(t, 2)
		l := m.Alloc(1)
		install(t, m, 0, l)
		if err := m.Write(0, l, 0, []byte{11}); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(1, l, 1, []byte{22}); err != nil {
			t.Fatal(err)
		}
		m.Crash(1)
		if m.Resident(l) {
			t.Error("line should be destroyed with node y")
		}
		if _, err := m.Read(0, l, 0, 1); !errors.Is(err, ErrLineLost) {
			t.Errorf("err = %v, want ErrLineLost", err)
		}
	})
}

func TestCrashIdempotentAndRestart(t *testing.T) {
	m := newTestMachine(t, 2)
	m.Crash(0)
	rep := m.Crash(0)
	if len(rep.Crashed) != 0 {
		t.Errorf("second crash of same node reported: %v", rep.Crashed)
	}
	if got := m.AliveNodes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("AliveNodes = %v, want [1]", got)
	}
	if err := m.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := m.AliveNodes(); len(got) != 2 {
		t.Errorf("AliveNodes after restart = %v", got)
	}
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Errorf("restarted node cannot write: %v", err)
	}
}

func TestLineLockExcludes(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	if got := m.LineLockHeldBy(l); got != 0 {
		t.Errorf("LineLockHeldBy = %d, want 0", got)
	}
	// A direct write by another node while the lock is held is a protocol
	// violation the machine rejects.
	if err := m.Write(1, l, 0, []byte{1}); !errors.Is(err, ErrLineLockHeld) {
		t.Errorf("write to locked line: err = %v, want ErrLineLockHeld", err)
	}
	var sec Section
	ok, err := m.TryEnter(&sec, 1, l)
	if err != nil || ok {
		t.Errorf("TryEnter on held lock = %v, %v; want false, nil", ok, err)
	}
	// The holder's own node does not wait for itself either.
	ok, err = m.TryEnter(&sec, 0, l)
	if err != nil || ok {
		t.Errorf("TryEnter by the holding node = %v, %v; want false, nil", ok, err)
	}
	if err := m.ReleaseLine(1, l); !errors.Is(err, ErrNotLockHolder) {
		t.Errorf("release by non-holder: err = %v, want ErrNotLockHolder", err)
	}
	if err := m.ReleaseLine(0, l); err != nil {
		t.Fatal(err)
	}
	ok, err = m.TryEnter(&sec, 1, l)
	if err != nil || !ok {
		t.Errorf("TryEnter after release = %v, %v; want true, nil", ok, err)
	}
	if err := sec.Leave(); err != nil {
		t.Fatal(err)
	}
	if m.ExclusiveHolder(l) != 1 {
		t.Error("GetLine should make the line exclusive in the caller's cache")
	}
}

func TestLineLockBlocksAndChains(t *testing.T) {
	m := newTestMachine(t, 4)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	acquired := make(chan NodeID, 3)
	for nd := NodeID(1); nd < 4; nd++ {
		wg.Add(1)
		go func(nd NodeID) {
			defer wg.Done()
			if err := m.GetLine(nd, l); err != nil {
				t.Errorf("GetLine(%d): %v", nd, err)
				return
			}
			acquired <- nd
			if err := m.ReleaseLine(nd, l); err != nil {
				t.Errorf("ReleaseLine(%d): %v", nd, err)
			}
		}(nd)
	}
	// Wait until all three waiters have entered GetLine (each bumps
	// LineLockAcquires before blocking), then release.
	for m.Stats().LineLockAcquires < 4 {
		runtime.Gosched()
	}
	m.AdvanceClock(0, 1000)
	if err := m.ReleaseLine(0, l); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(acquired)
	n := 0
	for range acquired {
		n++
	}
	if n != 3 {
		t.Fatalf("%d waiters acquired, want 3", n)
	}
	s := m.Stats()
	if s.LineLockAcquires != 4 {
		t.Errorf("LineLockAcquires = %d, want 4", s.LineLockAcquires)
	}
	if s.LineLockContended == 0 {
		t.Error("expected contended acquisitions")
	}
}

func TestLineLockSimulatedQueueing(t *testing.T) {
	// Successive holders of the same line lock must observe chained
	// simulated start times: the Nth acquirer cannot start before the
	// (N-1)th released.
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	m.AdvanceClock(0, 50_000) // hold for 50 us of simulated work
	if err := m.ReleaseLine(0, l); err != nil {
		t.Fatal(err)
	}
	if err := m.GetLine(1, l); err != nil {
		t.Fatal(err)
	}
	if got := m.Clock(1); got < 50_000 {
		t.Errorf("second holder's clock = %d, want >= 50000 (chained behind first holder)", got)
	}
	if err := m.ReleaseLine(1, l); err != nil {
		t.Fatal(err)
	}
}

func TestCrashBreaksLineLock(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- m.GetLine(1, l)
	}()
	m.Crash(0)
	if err := <-done; !errors.Is(err, ErrLineLost) {
		// Node 0 held the only copy, so the line died with it; the
		// waiter must be woken with ErrLineLost rather than hanging.
		t.Errorf("waiter after crash: err = %v, want ErrLineLost", err)
	}
}

func TestDiscard(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(1, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Dropping one of two copies keeps the line alive.
	if err := m.Discard(0, l); err != nil {
		t.Fatal(err)
	}
	if !m.Resident(l) {
		t.Fatal("line should survive on node 1")
	}
	// Dropping the last copy destroys the content.
	if err := m.Discard(1, l); err != nil {
		t.Fatal(err)
	}
	if m.Resident(l) {
		t.Error("line should be gone after last discard")
	}
	// Discard of a non-held line is a no-op.
	if err := m.Discard(0, l); err != nil {
		t.Errorf("idempotent discard: %v", err)
	}
}

func TestCaches(t *testing.T) {
	m := newTestMachine(t, 2)
	a := m.Alloc(1)
	b := m.Alloc(1)
	c := m.Alloc(1)
	install(t, m, 0, a)
	install(t, m, 0, b)
	install(t, m, 1, c)
	if _, err := m.Read(1, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nd   NodeID
		l    LineID
		want bool
	}{{1, a, false}, {1, b, true}, {1, c, true}, {0, a, true}, {0, c, false}, {1, -1, false}, {1, c + 1, false}} {
		if got := m.Caches(tc.nd, tc.l); got != tc.want {
			t.Errorf("Caches(%d, %d) = %v, want %v", tc.nd, tc.l, got, tc.want)
		}
	}
	if err := m.Discard(1, b); err != nil {
		t.Fatal(err)
	}
	if m.Caches(1, b) || !m.Caches(0, b) {
		t.Errorf("after node 1 discards line %d: Caches(1) = %v, Caches(0) = %v; want false, true", b, m.Caches(1, b), m.Caches(0, b))
	}
	if n := testing.AllocsPerRun(10, func() { m.Caches(1, c) }); n != 0 {
		t.Errorf("Caches allocates %v times a call, want 0", n)
	}
}

func TestActiveBitAndTrigger(t *testing.T) {
	m := newTestMachine(t, 3)
	l := m.Alloc(1)
	install(t, m, 0, l)
	var events []Event
	m.SetPreTransition(func(ev Event) (int64, error) {
		events = append(events, ev)
		return 123, nil
	})
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActive(l, true); err != nil {
		t.Fatal(err)
	}
	if !m.Active(l) {
		t.Fatal("active bit not set")
	}
	// A remote read downgrades: the trigger must fire first.
	before := m.Clock(1)
	if _, err := m.Read(1, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventDowngrade || events[0].From != 0 || events[0].To != 1 {
		t.Fatalf("events = %+v, want one downgrade 0->1", events)
	}
	if m.Clock(1)-before < 123 {
		t.Error("trigger cost not charged to the requesting node")
	}
	// The successful fire cleared the active bit (the force made the line
	// clean), so a subsequent invalidating write fires no second trigger.
	if m.Active(l) {
		t.Error("active bit not cleared after successful fire")
	}
	if err := m.Write(2, l, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %+v, want no event after bit cleared", events)
	}
	// Re-marking the line active re-arms the trigger.
	if err := m.Write(2, l, 0, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActive(l, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(0, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Kind != EventDowngrade {
		t.Fatalf("events = %+v, want a second downgrade", events)
	}
	if s := m.Stats(); s.TriggerFires != 2 {
		t.Errorf("TriggerFires = %d, want 2", s.TriggerFires)
	}
}

func TestMigrationFiresTrigger(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	var events []Event
	m.SetPreTransition(func(ev Event) (int64, error) {
		events = append(events, ev)
		return 0, nil
	})
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActive(l, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, l, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventMigrate {
		t.Fatalf("events = %+v, want one migrate", events)
	}
}

func TestClocksAdvance(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	c0 := m.Clock(0)
	if _, err := m.Read(0, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Clock(0) <= c0 {
		t.Error("local read did not advance clock")
	}
	c1 := m.Clock(1)
	if _, err := m.Read(1, l, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := m.Clock(1) - c1; d < m.Config().Cost.RemoteFetch {
		t.Errorf("remote read advanced clock by %d, want >= RemoteFetch", d)
	}
	if m.MaxClock() < m.Clock(0) {
		t.Error("MaxClock below a node clock")
	}
	m.AdvanceClock(0, 1e9)
	if m.MaxClock() < 1e9 {
		t.Error("AdvanceClock not reflected in MaxClock")
	}
}

func TestInstallReplacesCopies(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, m.LineSize())
	fresh[0] = 99
	if err := m.Install(1, l, fresh); err != nil {
		t.Fatal(err)
	}
	if h := m.Holders(l); len(h) != 1 || h[0] != 1 {
		t.Errorf("holders after Install = %v, want [1]", h)
	}
	got, err := m.Read(1, l, 0, 1)
	if err != nil || got[0] != 99 {
		t.Errorf("Install content = %v, %v", got, err)
	}
}

func TestInstallShortData(t *testing.T) {
	m := newTestMachine(t, 1)
	l := m.Alloc(1)
	if err := m.Install(0, l, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0, l, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}
