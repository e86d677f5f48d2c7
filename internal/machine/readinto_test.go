package machine

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// readEffects is everything a remote read of an active, exclusively held line
// leaves behind besides the bytes it returns.
type readEffects struct {
	line      LineID
	data      []byte
	err       error
	stats     Stats
	clocks    [3]int64
	fired     []Event // pre-transition hook calls
	consulted []Event // transition-fault hook calls
	holders   []NodeID
	excl      NodeID
	active    bool
	alive     [3]bool
}

// remoteReadEffects sets up H_wr on a fresh machine — node 0 holds an active
// line exclusively — lets node 1 read it with read, and reports the effects.
// The fault hook crashes victim at the downgrade (NoNode: nobody).
func remoteReadEffects(t *testing.T, victim NodeID, read func(m *Machine, l LineID) ([]byte, error)) readEffects {
	t.Helper()
	m := newTestMachine(t, 3)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.Write(0, l, 4, []byte{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActive(l, true); err != nil {
		t.Fatal(err)
	}
	e := readEffects{line: l}
	m.SetPreTransition(func(ev Event) (int64, error) {
		e.fired = append(e.fired, ev)
		return 123, nil
	})
	m.SetTransitionFault(func(ev Event, alive int) []NodeID {
		e.consulted = append(e.consulted, ev)
		if victim == NoNode {
			return nil
		}
		return []NodeID{victim}
	})
	m.ResetStats()
	e.data, e.err = read(m, l)
	e.stats = m.Stats()
	for n := range e.clocks {
		e.clocks[n] = m.Clock(NodeID(n))
		e.alive[n] = m.Alive(NodeID(n))
	}
	e.holders, e.excl, e.active = m.Holders(l), m.ExclusiveHolder(l), m.Active(l)
	return e
}

// TestReadIntoHasReadsCoherencyEffects: ReadInto is Read minus the
// allocation. A remote ReadInto downgrades and replicates, fires the
// Stable-triggered pre-transition hook, consults the transition-fault hook,
// and applies the crash it asks for — all exactly as Read does.
func TestReadIntoHasReadsCoherencyEffects(t *testing.T) {
	viaRead := func(m *Machine, l LineID) ([]byte, error) { return m.Read(1, l, 4, 3) }
	viaReadInto := func(m *Machine, l LineID) ([]byte, error) {
		dst := make([]byte, 3)
		if err := m.ReadInto(1, l, 4, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	for _, tc := range []struct {
		name    string
		victim  NodeID
		wantErr error
	}{
		{"no fault", NoNode, nil},
		{"old holder dies at the downgrade", 0, nil},
		{"reader dies at the downgrade", 1, ErrNodeDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := remoteReadEffects(t, tc.victim, viaRead)
			got := remoteReadEffects(t, tc.victim, viaReadInto)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ReadInto's effects differ from Read's:\n got  %+v\n want %+v", got, want)
			}
			// And they are the effects H_wr calls for, not merely equal.
			if !errors.Is(got.err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", got.err, tc.wantErr)
			}
			if tc.wantErr == nil && !bytes.Equal(got.data, []byte{7, 8, 9}) {
				t.Errorf("data = %v, want [7 8 9]", got.data)
			}
			if s := got.stats; s.Reads != 1 || s.Downgrades != 1 || s.Replications != 1 ||
				s.RemoteFetches != 1 || s.TriggerFires != 1 {
				t.Errorf("stats = %+v, want one remote read with one downgrade, replication and trigger fire", s)
			}
			downgrade := []Event{{Line: got.line, Kind: EventDowngrade, From: 0, To: 1}}
			if !reflect.DeepEqual(got.fired, downgrade) || !reflect.DeepEqual(got.consulted, downgrade) {
				t.Errorf("fired %+v, consulted %+v; want one downgrade 0->1 each", got.fired, got.consulted)
			}
			if got.active {
				t.Error("active bit survived a successful trigger fire")
			}
			if got.alive[0] != (tc.victim != 0) || got.alive[1] != (tc.victim != 1) {
				t.Errorf("alive = %v with victim %d", got.alive, tc.victim)
			}
		})
	}
}

// TestReadIntoChecksRangeAndAllocatesNothing pins the two ways ReadInto
// differs from Read: the length comes from dst, and nothing is allocated.
func TestReadIntoChecksRangeAndAllocatesNothing(t *testing.T) {
	m := newTestMachine(t, 2)
	l := m.Alloc(1)
	install(t, m, 0, l)
	if err := m.ReadInto(0, l, m.LineSize()-2, make([]byte, 3)); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ReadInto past the line end: err = %v, want ErrBadAddress", err)
	}
	if err := m.ReadInto(0, l+1, 0, make([]byte, 1)); !errors.Is(err, ErrLineLost) {
		t.Errorf("ReadInto of a never-installed line: err = %v, want ErrLineLost", err)
	}
	dst := make([]byte, m.LineSize())
	if n := testing.AllocsPerRun(200, func() {
		if err := m.ReadInto(0, l, 0, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadInto allocates %.1f/op", n)
	}
}
