package machine

import (
	"errors"
	"testing"
	"time"
)

// waitForWaiters polls until the line's lock has n registered waiters, so
// tests can order "goroutine is blocked in GetLine" before the next step.
func waitForWaiters(t *testing.T, m *Machine, l LineID, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := m.stripeOf(l)
		s.mu.Lock()
		got := m.lines[l].lock.waiters
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d line-lock waiters (have %d)", n, got)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Regression test: Crash of an already-crashed node must be a true no-op
// (empty report, no double-counted stats) but must still broadcast, so
// goroutines blocked on line locks re-check their liveness and never sleep
// through a wake-up they were owed.
func TestCrashIdempotentAndWakesWaiters(t *testing.T) {
	m := newTestMachine(t, 3)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.GetLine(0, l); err != nil {
		t.Fatal(err)
	}

	// Node 1 blocks on node 0's line lock.
	errc := make(chan error, 1)
	go func() { errc <- m.GetLine(1, l) }()
	waitForWaiters(t, m, l, 1)

	rep := m.Crash(2)
	if len(rep.Crashed) != 1 || rep.Crashed[0] != 2 {
		t.Fatalf("first Crash(2): Crashed = %v, want [2]", rep.Crashed)
	}
	crashes := m.Stats().Crashes

	// Idempotent re-crash: empty report, stats unchanged, and the blocked
	// waiter is not disturbed into a wrong result.
	rep = m.Crash(2)
	if len(rep.Crashed) != 0 || len(rep.LostLines) != 0 || len(rep.OrphanedLines) != 0 {
		t.Errorf("re-crash of dead node: report = %+v, want empty", rep)
	}
	if got := m.Stats().Crashes; got != crashes {
		t.Errorf("re-crash bumped Crashes %d -> %d", crashes, got)
	}
	select {
	case err := <-errc:
		t.Fatalf("waiter returned %v during unrelated re-crash", err)
	default:
	}

	// Killing the waiter's own node — interleaved with another idempotent
	// re-crash — must wake it with ErrNodeDown.
	m.Crash(1)
	m.Crash(2) // idempotent again, must still broadcast
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNodeDown) {
			t.Errorf("dead waiter: err = %v, want ErrNodeDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by crash of its own node")
	}

	// A fresh waiter blocked on the (still-held) lock is woken when the
	// *owner* crashes; the sole copy dies with it, so the waiter observes
	// ErrLineLost rather than acquiring a destroyed line.
	if err := m.Restart(2); err != nil {
		t.Fatal(err)
	}
	go func() { errc <- m.GetLine(2, l) }()
	waitForWaiters(t, m, l, 1)
	m.Crash(0)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrLineLost) {
			t.Errorf("waiter after owner crash: err = %v, want ErrLineLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by crash of the lock owner")
	}
}

// TestCrashSweepAllocs: a Crash allocates a fixed number of times — its
// report's three lists — however many cached lines its sweep walks. Node 1
// holds every line, half alone (lost with it) and half shared with node 0
// (orphaned); each run restarts it and rebuilds that cache without allocating.
func TestCrashSweepAllocs(t *testing.T) {
	var allocs []float64
	for _, lines := range []int{4096, 16384} {
		m := New(Config{Nodes: 2, LineSize: 128, Lines: lines})
		first := m.Alloc(lines)
		img := make([]byte, m.LineSize())
		var word [8]byte
		var rep CrashReport
		crash := func() {
			if err := m.Restart(1); err != nil {
				t.Fatal(err)
			}
			for l := first; l < first+LineID(lines); l++ {
				if l%2 == 0 {
					if err := m.Install(1, l, img); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := m.Install(0, l, img); err != nil {
					t.Fatal(err)
				}
				if err := m.ReadInto(1, l, 0, word[:]); err != nil {
					t.Fatal(err)
				}
			}
			rep = m.Crash(1)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, crash))
		if len(rep.LostLines) != lines/2 || len(rep.OrphanedLines) != lines/2 {
			t.Fatalf("%d lines: crash lost %d and orphaned %d, want %d each", lines, len(rep.LostLines), len(rep.OrphanedLines), lines/2)
		}
	}
	if allocs[0] > 3 || allocs[1] != allocs[0] {
		t.Errorf("a Crash over 4096 lines allocates %.0f times and over 16384 %.0f; want the same handful (at most 3)", allocs[0], allocs[1])
	}
}

// A transition fault that names an already-dead victim must stay a no-op.
func TestTransitionFaultOnDeadVictim(t *testing.T) {
	m := newTestMachine(t, 3)
	l := m.Alloc(1)
	install(t, m, 0, l)
	m.SetTransitionFault(func(ev Event, alive int) []NodeID {
		return []NodeID{0}
	})
	// Write from node 1 migrates the line off node 0; the hook crashes
	// node 0 at that instant.
	if err := m.Write(1, l, 0, []byte{1}); err != nil {
		t.Fatalf("migrating write: %v", err)
	}
	if m.Alive(0) {
		t.Fatal("transition fault did not crash node 0")
	}
	if !m.Resident(l) {
		t.Fatal("line lost despite surviving copy on node 1")
	}
	// The next migration fires the hook again, naming the dead node:
	// nothing changes.
	crashes := m.Stats().Crashes
	if err := m.Write(2, l, 0, []byte{2}); err != nil {
		t.Fatalf("second migrating write: %v", err)
	}
	if got := m.Stats().Crashes; got != crashes {
		t.Errorf("dead-victim fault bumped Crashes %d -> %d", crashes, got)
	}
	if !m.Alive(1) || !m.Alive(2) {
		t.Error("dead-victim fault crashed a live node")
	}
}
