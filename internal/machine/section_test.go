package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smdb/internal/obs"
)

// lineCS drives one line-lock critical section. The property below runs the
// same script through both implementations and requires the same machine.
type lineCS interface {
	enter(nd NodeID, l LineID) error
	read(off int, dst []byte) error
	write(off int, data []byte) error
	setActive(on bool)
	yield()
	leave() error
}

// viaSection runs the critical section as one Section.
type viaSection struct {
	m   *Machine
	sec Section
}

func (v *viaSection) enter(nd NodeID, l LineID) error  { return v.m.Enter(&v.sec, nd, l) }
func (v *viaSection) read(off int, dst []byte) error   { return v.sec.Read(off, dst) }
func (v *viaSection) write(off int, data []byte) error { return v.sec.Write(off, data) }
func (v *viaSection) setActive(on bool)                { v.sec.SetActive(on) }
func (v *viaSection) yield()                           { v.sec.Yield() }
func (v *viaSection) leave() error                     { return v.sec.Leave() }

// viaCalls runs it as the stand-alone calls, one stripe hold per step.
type viaCalls struct {
	m  *Machine
	nd NodeID
	l  LineID
}

func (v *viaCalls) enter(nd NodeID, l LineID) error {
	v.nd, v.l = nd, l
	return v.m.GetLine(nd, l)
}
func (v *viaCalls) read(off int, dst []byte) error   { return v.m.ReadInto(v.nd, v.l, off, dst) }
func (v *viaCalls) write(off int, data []byte) error { return v.m.Write(v.nd, v.l, off, data) }
func (v *viaCalls) setActive(on bool)                { _ = v.m.SetActive(v.l, on) }
func (v *viaCalls) yield()                           {}
func (v *viaCalls) leave() error                     { return v.m.ReleaseLine(v.nd, v.l) }

// eventLog is an observer sink that appends every event to a transcript.
type eventLog struct{ log *[]string }

func (e eventLog) OnEvent(ev obs.Event) {
	*e.log = append(*e.log, fmt.Sprintf("event %v node=%d sim=%d a=%d b=%d dur=%d", ev.Kind, ev.Node, ev.Sim, ev.A, ev.B, ev.Dur))
}

// runSectionScript plays the random script of seed on a fresh machine,
// running its critical sections through mk's driver, and returns a transcript
// of everything observable: every returned error and byte read, every trace
// event and hook call (with the clock the pre-transition hook saw), and after
// each round the counters, clocks, liveness and full state of every line —
// directory entry, active bit, line lock with its freeAt, and data.
func runSectionScript(t *testing.T, seed int64, coh Coherency, mk func(*Machine) lineCS) []string {
	t.Helper()
	const nodes, nlines, lineSize = 3, 4, 32
	r := rand.New(rand.NewSource(seed))
	m := New(Config{Nodes: nodes, Lines: nlines, LineSize: lineSize, Coherency: coh})
	base := m.Alloc(nlines)
	cs := mk(m)
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	o := obs.New()
	o.SetSink(eventLog{&log})
	m.SetHooks(o)
	// victim selects whom the transition-fault hook kills at the next
	// transition: nobody, the node losing the line, or the node gaining it.
	const (
		nobody = iota
		loser
		gainer
	)
	victim := nobody
	m.SetTransitionFault(func(ev Event, alive int) []NodeID {
		logf("consult %+v alive=%d", ev, alive)
		switch victim {
		case loser:
			return []NodeID{ev.From}
		case gainer:
			return []NodeID{ev.To}
		}
		return nil
	})
	m.SetPreTransition(func(ev Event) (int64, error) {
		logf("fire %+v clock(to)=%d", ev, m.Clock(ev.To))
		return 70, nil
	})

	image := func() []byte {
		img := make([]byte, lineSize)
		r.Read(img)
		return img
	}
	for round, rounds := 0, 20+r.Intn(40); round < rounds; round++ {
		// Repair what the last round's faults broke, so every round starts
		// with all nodes up and all lines somewhere.
		victim = nobody
		for nd := NodeID(0); nd < nodes; nd++ {
			if !m.Alive(nd) {
				logf("restart %d: %v", nd, m.Restart(nd))
			}
		}
		for l := base; l < base+nlines; l++ {
			if !m.Resident(l) {
				nd := NodeID(r.Intn(nodes))
				logf("install %d on %d: %v", l, nd, m.Install(nd, l, image()))
			}
		}
		nd, l := NodeID(r.Intn(nodes)), base+LineID(r.Intn(nlines))
		switch r.Intn(8) {
		case 0: // a plain read spreads a copy: the next Enter invalidates or downgrades
			_, err := m.Read(nd, l, 0, lineSize)
			logf("read by %d of %d: %v", nd, l, err)
		case 1: // a plain write moves the line: the next Enter migrates it
			logf("write by %d of %d: %v", nd, l, m.Write(nd, l, r.Intn(lineSize-4), image()[:4]))
		default:
			var err error
			if holder := (nd + 1) % nodes; r.Intn(4) == 0 && m.GetLine(holder, l) == nil {
				// Contended: nd queues behind holder, which then releases.
				errc := make(chan error, 1)
				victim = []int{nobody, nobody, loser, gainer}[r.Intn(4)]
				go func() { errc <- cs.enter(nd, l) }()
				waitForWaiters(t, m, l, 1)
				rerr := m.ReleaseLine(holder, l)
				err = <-errc // the transcript is the enterer's until it returns
				logf("release by holder %d: %v", holder, rerr)
			} else {
				victim = []int{nobody, nobody, loser, gainer}[r.Intn(4)]
				err = cs.enter(nd, l)
			}
			logf("enter %d on %d: %v", l, nd, err)
			if err != nil {
				break
			}
			for step, steps := 0, 1+r.Intn(6); step < steps; step++ {
				switch r.Intn(8) {
				case 0, 1:
					off := r.Intn(lineSize)
					dst := make([]byte, r.Intn(lineSize/2)) // sometimes past the end
					logf("  read: %v %x", cs.read(off, dst), dst)
				case 2, 3, 4:
					off := r.Intn(lineSize)
					logf("  write: %v", cs.write(off, image()[:r.Intn(lineSize/2)]))
				case 5:
					on := r.Intn(3) > 0
					cs.setActive(on)
					logf("  active=%v", on)
				case 6:
					cs.yield()
				case 7:
					// Reads are not stopped by a line lock: another node's
					// read downgrades the pinned line, and the section's next
					// write has a copy to invalidate — a transition, with its
					// force, trace event and fault consultation, under a hold
					// that may already carry earlier steps' charges.
					cs.yield()
					other := (nd + 1 + NodeID(r.Intn(nodes-1))) % nodes
					_, err := m.Read(other, l, 0, lineSize)
					logf("  read by %d: %v", other, err)
				}
			}
			logf("leave: %v", cs.leave())
		}
		logf("stats %+v", m.Stats())
		for nd := NodeID(0); nd < nodes; nd++ {
			logf("node %d alive=%v clock=%d", nd, m.Alive(nd), m.Clock(nd))
		}
		for l := base; l < base+nlines; l++ {
			ln := &m.lines[l]
			logf("line %d valid=%v holders=%b excl=%d active=%v lock=%+v data=%x",
				l, ln.valid.Load(), ln.holders, ln.excl, ln.active, ln.lock, ln.data)
		}
	}
	return log
}

// TestSectionIsTheStandAloneCalls is the equivalence the section rests on: a
// critical section run as Enter/steps/Leave under one stripe hold, with its
// clock charge published per hold, leaves exactly the machine —
// and returns exactly the errors and bytes, and emits exactly the trace
// events, at the same simulated times — as the same steps issued as
// GetLine/ReadInto/Write/SetActive/ReleaseLine — and a Peek whose hold an
// Enter continues, exactly as ReadInto followed by GetLine. The script covers
// local hits,
// remote first touches (migrate, invalidate), contended enters, another
// node's read landing inside the section, a
// transition-fault hook that kills the previous holder or the enterer itself,
// pre-transition forces on active lines, and both coherency protocols.
func TestSectionIsTheStandAloneCalls(t *testing.T) {
	for _, coh := range []Coherency{WriteInvalidate, WriteBroadcast} {
		for seed := int64(1); seed <= 60; seed++ {
			want := runSectionScript(t, seed, coh, func(m *Machine) lineCS { return &viaCalls{m: m} })
			got := runSectionScript(t, seed, coh, func(m *Machine) lineCS { return &viaSection{m: m} })
			if slices.Equal(got, want) {
				continue
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					g := "<end of transcript>"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("%v, seed %d: the section diverges from the stand-alone calls at transcript line %d:\n section:     %s\n stand-alone: %s\n (after: %s)",
						coh, seed, i, g, want[i], want[max(i-1, 0)])
				}
			}
			t.Fatalf("%v, seed %d: the section's transcript is %d lines longer", coh, seed, len(got)-len(want))
		}
	}
}

// TestSectionHoldsItsStripeBetweenSteps: an open section keeps its line's
// stripe from one step to the next, so a run of steps is one stripe hold; it
// drops the stripe at Yield, and Leave gives it back.
func TestSectionHoldsItsStripeBetweenSteps(t *testing.T) {
	m := New(Config{Nodes: 2, Lines: 64})
	l := m.Alloc(1)
	if err := m.Install(0, l, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s := m.stripeOf(l)
	held := func(when string, want bool) {
		t.Helper()
		free := s.mu.TryLock()
		if free {
			s.mu.Unlock()
		}
		if free == want {
			t.Errorf("%s: stripe held = %v, want %v", when, !free, want)
		}
	}
	var sec Section
	if err := m.Enter(&sec, 0, l); err != nil {
		t.Fatal(err)
	}
	held("after Enter", true)
	if err := sec.Write(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	held("between steps", true)
	sec.Yield()
	held("after Yield", false)
	if err := sec.Read(0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	held("after the step that follows a Yield", true)
	if err := sec.Leave(); err != nil {
		t.Fatal(err)
	}
	held("after Leave", false)
}

// TestSectionsAgainstCrashes runs whole-machine transitions against
// goroutines that live inside sections, for a fixed number of crash rounds
// with a wedge timeout. Each worker nests a second section inside its first
// on a line of a LOWER stripe or of the SAME stripe, yielding the outer one
// first. That is the discipline under test: Crash takes every stripe in
// ascending order, so a worker that reached for its second stripe with the
// first still held would deadlock against a sweep that holds the lower stripe
// and waits for the higher (or against itself, on the colliding pair), and the
// timeout would fail the test. Run with -race -cpu 2.
func TestSectionsAgainstCrashes(t *testing.T) {
	const nodes, crashRounds = 3, 60
	m := New(Config{Nodes: nodes, Lines: 4 * stripeCount, LineSize: 32})
	base := m.Alloc(4 * stripeCount)
	// Per worker: an outer line, and two inner lines — one on a lower stripe,
	// one colliding with the outer line's stripe.
	type lines struct{ outer, lower, colliding LineID }
	work := []lines{
		{outer: base + 9, lower: base + 3, colliding: base + 9 + stripeCount},
		{outer: base + 9 + 2*stripeCount, lower: base + 3 + stripeCount, colliding: base + 9 + 3*stripeCount},
	}
	if m.stripeOf(work[0].outer) != m.stripeOf(work[0].colliding) || m.stripeOf(work[0].outer) == m.stripeOf(work[0].lower) ||
		m.stripeOf(work[0].outer) != m.stripeOf(work[1].outer) {
		t.Fatal("the test's lines do not collide the way it means them to")
	}
	img := make([]byte, 32)
	reinstall := func(nd NodeID, ls lines) {
		for _, l := range []LineID{ls.outer, ls.lower, ls.colliding} {
			if !m.Resident(l) {
				_ = m.Install(nd, l, img) // fails while nd is down; the next pass retries
			}
		}
	}

	var stop atomic.Bool
	var done [2]atomic.Int64 // critical sections each worker completed
	var wg sync.WaitGroup
	for w, ls := range work {
		wg.Add(1)
		go func(nd NodeID, ls lines, done *atomic.Int64) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; !stop.Load(); i++ {
				reinstall(nd, ls)
				var outer, inner Section
				if err := m.Enter(&outer, nd, ls.outer); err != nil {
					runtime.Gosched() // down, or the line is lost: try again
					continue
				}
				err := outer.Read(0, buf)
				if err == nil {
					err = outer.Write(8, buf)
				}
				if err == nil {
					second := ls.lower
					if i%2 == 1 {
						second = ls.colliding
					}
					outer.Yield()
					if err = m.Enter(&inner, nd, second); err == nil {
						err = inner.Write(0, buf)
						inner.Yield()
						if err == nil {
							err = outer.Write(16, buf)
							outer.Yield()
						}
						lerr := inner.Leave()
						if err == nil {
							err = lerr
						}
					}
				}
				// Without a crash of nd every step succeeds; with one, the
				// lock was broken under us and the errors say so.
				if lerr := outer.Leave(); err == nil {
					err = lerr
				}
				if err == nil {
					done.Add(1)
				} else if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrNotLockHolder) && !errors.Is(err, ErrLineLost) {
					t.Errorf("worker %d: %v", nd, err)
					return
				}
			}
		}(NodeID(w), ls, &done[w])
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for round := 0; round < crashRounds; round++ {
			// Let both workers get through a section between crashes, so
			// the sweeps land on live critical sections.
			for before := [2]int64{done[0].Load(), done[1].Load()}; done[0].Load() == before[0] || done[1].Load() == before[1]; {
				runtime.Gosched()
			}
			victim := NodeID(round % nodes) // node 2 runs no worker: a bystander crash
			m.Crash(victim)
			runtime.Gosched()
			if err := m.Restart(victim); err != nil {
				t.Errorf("restart %d: %v", victim, err)
			}
		}
		stop.Store(true)
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("wedged: a section and a crash sweep are waiting for each other\n%s", buf[:runtime.Stack(buf, true)])
	}
	for w := range done {
		if done[w].Load() < crashRounds {
			t.Errorf("worker %d completed %d critical sections over %d crash rounds", w, done[w].Load(), crashRounds)
		}
	}
}

// TestLineLockPathDoesNotAllocate: with no observer attached, a line lock,
// a write under it and the release allocate nothing — each is a hold of
// the line's bare stripe mutex.
func TestLineLockPathDoesNotAllocate(t *testing.T) {
	m := New(Config{Nodes: 2, Lines: 256})
	l := m.Alloc(1)
	if err := m.Install(0, l, []byte{1}); err != nil {
		t.Fatal(err)
	}
	buf := []byte{42}
	if n := testing.AllocsPerRun(200, func() {
		if err := m.GetLine(0, l); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0, l, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseLine(0, l); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("lock/write/release path allocates %.1f/op", n)
	}
}
