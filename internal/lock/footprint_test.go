package lock

import (
	"slices"
	"testing"

	"smdb/internal/machine"
	"smdb/internal/wal"
)

// footprint is what one lock call costs the simulated machine: the counters
// it moves and the simulated time it charges the calling node.
type footprint struct {
	st    machine.Stats
	clock int64
}

// TestLockOpMachineFootprint pins the simulated-machine operation sequence of
// every lock call: the codec and bookkeeping under an LCB operation may get
// cheaper on the host, but the reads, writes, line-lock acquisitions and
// simulated nanoseconds a call issues are part of the reproduced system (they
// feed machine.Stats, the E-tables and recorded chaos schedules) and must not
// move unless the protocol does. Recorded when every call began with the home
// slot's line lock and one read under it: a call that resolves at home costs
// one read (the peek, the confirming read and the chain's re-read of the head
// went), an absent name a line lock (it used to cost a peek alone), and a
// chained LCB's overflow line is written under its own line lock.
func TestLockOpMachineFootprint(t *testing.T) {
	for _, chained := range []bool{false, true} {
		name := "one-line"
		if chained {
			name = "chained"
		}
		t.Run(name, func(t *testing.T) {
			s, _, m := newSM(t, 2, 64, LogAllLocks)
			s.Chained = chained
			key := NameOfKey(7)
			t1, t2, t3 := wal.MakeTxnID(0, 1), wal.MakeTxnID(0, 2), wal.MakeTxnID(0, 3)

			// measure reports op's footprint on the node its transaction runs on.
			measureOn := func(nd machine.NodeID, op func()) footprint {
				t.Helper()
				st0, c0 := m.Stats(), m.Clock(nd)
				op()
				return footprint{st: m.Stats().Sub(st0), clock: m.Clock(nd) - c0}
			}
			measure := func(op func()) footprint { return measureOn(0, op) }
			acquire := func(txn wal.TxnID, n Name, mode Mode, wantGrant bool) func() {
				return func() {
					t.Helper()
					if g, err := s.Acquire(txn.Node(), txn, n, mode); err != nil || g != wantGrant {
						t.Fatalf("Acquire(%v, %v) = %v, %v; want grant=%v", txn, mode, g, err, wantGrant)
					}
				}
			}

			got := map[string]footprint{}
			got["acquire-create"] = measure(acquire(t1, key, Shared, true))
			got["acquire-hit"] = measure(acquire(t2, key, Shared, true))
			got["holds"] = measure(func() {
				if _, held, err := s.Holds(0, t1, key); err != nil || !held {
					t.Fatalf("Holds = %v, %v", held, err)
				}
			})
			got["holds-absent"] = measure(func() {
				if _, held, err := s.Holds(0, t1, NameOfKey(8)); err != nil || held {
					t.Fatalf("Holds(absent) = %v, %v", held, err)
				}
			})
			got["acquire-wait"] = measure(acquire(t3, key, Exclusive, false))
			got["cancel-wait"] = measure(func() {
				if _, err := s.WithdrawWait(0, t3, key); err != nil {
					t.Fatal(err)
				}
			})
			got["release"] = measure(func() {
				if err := s.Release(0, t2, key); err != nil {
					t.Fatal(err)
				}
			})
			got["release-tombstone"] = measure(func() {
				if err := s.Release(0, t1, key); err != nil {
					t.Fatal(err)
				}
			})
			got["acquire-own-tombstone"] = measure(acquire(t1, key, Exclusive, true))
			// The same calls from another node migrate the LCB line.
			r1 := wal.MakeTxnID(1, 1)
			got["acquire-wait-remote"] = measureOn(1, acquire(r1, key, Shared, false))
			got["cancel-wait-remote"] = measureOn(1, func() {
				if _, err := s.WithdrawWait(1, r1, key); err != nil {
					t.Fatal(err)
				}
			})
			// A waiter's poll: the look at its LCB costs what Holds does,
			// whatever it finds there.
			acquire(t3, key, Shared, false)()
			got["look-queued"] = measure(func() {
				held, queued, blockers, err := s.Look(0, t3, key, nil)
				if err != nil || held != 0 || !queued || !slices.Equal(blockers, []wal.TxnID{t1}) {
					t.Fatalf("Look(waiter) = %v, %v, %v, %v", held, queued, blockers, err)
				}
			})
			got["look-absent"] = measure(func() {
				if held, queued, _, err := s.Look(0, t3, NameOfKey(8), nil); err != nil || held != 0 || queued {
					t.Fatalf("Look(absent) = %v, %v, %v", held, queued, err)
				}
			})
			// Another name with the same home slot passes key's tombstone
			// and takes it once the empty slot after it ends the search.
			if _, err := s.WithdrawWait(0, t3, key); err != nil {
				t.Fatal(err)
			}
			if err := s.Release(0, t1, key); err != nil {
				t.Fatal(err)
			}
			other := NameOfKey(8)
			for k := uint64(10); s.hashSlot(other) != s.hashSlot(key); k++ {
				other = NameOfKey(k)
			}
			got["acquire-reuse-tombstone"] = measure(acquire(t1, other, Exclusive, true))
			if err := s.Release(0, t1, other); err != nil {
				t.Fatal(err)
			}
			if chained {
				// Fill the head line, then one more holder claims an overflow
				// line; releasing it gives the line back.
				big := NameOfKey(9)
				for i := 0; i < s.entryCap(); i++ {
					acquire(wal.MakeTxnID(0, uint64(100+i)), big, Shared, true)()
				}
				over := wal.MakeTxnID(0, 500)
				got["acquire-overflow"] = measure(acquire(over, big, Shared, true))
				got["holds-chained"] = measure(func() {
					if _, held, err := s.Holds(0, over, big); err != nil || !held {
						t.Fatalf("Holds(chained) = %v, %v", held, err)
					}
				})
				waiter := wal.MakeTxnID(0, 501)
				acquire(waiter, big, Exclusive, false)()
				got["look-chained"] = measure(func() {
					_, queued, blockers, err := s.Look(0, waiter, big, nil)
					if err != nil || !queued || len(blockers) != s.entryCap()+1 {
						t.Fatalf("Look(chained) = %v, %d blockers, %v", queued, len(blockers), err)
					}
				})
				if _, err := s.WithdrawWait(0, waiter, big); err != nil {
					t.Fatal(err)
				}
				got["release-shrink"] = measure(func() {
					if err := s.Release(0, over, big); err != nil {
						t.Fatal(err)
					}
				})
			}

			for op, g := range got {
				w, ok := footprintWant[op]
				if !ok {
					t.Errorf("%s: no recorded footprint", op)
				} else if g != w {
					t.Errorf("%s:\n got  %+v\n want %+v", op, g, w)
				}
			}
		})
	}
}

// local is the footprint of a call whose LCB line is already exclusive in the
// caller's cache: every access is a local hit.
func local(reads, writes, lineLocks, clock int64) footprint {
	return footprint{st: machine.Stats{Reads: reads, Writes: writes, LocalHits: reads + writes,
		LineLockAcquires: lineLocks}, clock: clock}
}

// footprintWant is keyed by the operation names of TestLockOpMachineFootprint;
// the one-line and chained tables agree on every operation both can perform.
var footprintWant = map[string]footprint{
	"acquire-create":          local(1, 1, 1, 1250), // GetLine on the home slot, read, Write, ReleaseLine
	"acquire-hit":             local(1, 1, 1, 1250),
	"acquire-wait":            local(1, 1, 1, 1250),
	"acquire-reuse-tombstone": local(2, 1, 1, 1350), // another name's tombstone at home: one peek past it, to the empty slot
	"acquire-own-tombstone":   local(1, 1, 1, 1250), // its own tombstone at home, where the search ends
	"holds":                   local(1, 0, 1, 1100),
	"holds-absent":            local(1, 0, 1, 1100), // the empty home slot, read under its lock
	"look-queued":             local(1, 0, 1, 1100),
	"look-absent":             local(1, 0, 1, 1100),
	"cancel-wait":             local(1, 1, 1, 1250),
	"release":                 local(1, 1, 1, 1250),
	"release-tombstone":       local(1, 1, 1, 1250),
	// GetLine migrates node 0's exclusive copy.
	"acquire-wait-remote": {st: machine.Stats{Reads: 1, Writes: 1, LocalHits: 2, Migrations: 1,
		LineLockAcquires: 1}, clock: 22000},
	"cancel-wait-remote": local(1, 1, 1, 1250),
	// Chained only: the 13th holder claims an overflow line (scan read,
	// TryEnter, confirm, reserve, ReleaseLine) and the chain is stored as two
	// lines, the overflow line under its own line lock.
	"acquire-overflow": local(3, 3, 3, 3750),
	"holds-chained":    local(2, 0, 1, 1200),
	"look-chained":     local(2, 0, 1, 1200), // one more read per continuation line
	"release-shrink":   local(2, 2, 2, 2500), // head rewritten, overflow line entered and tombstoned
}

// TestReleaseCrashedMachineFootprint pins what lock-space recovery's sweep
// costs the coordinator: over a table whose surviving lines hold two crashed
// transactions' entries (one among other holders, one blocking a survivor,
// who is promoted), every resident line is locked, read and released, and the
// two LCBs that change are read again as chains and written back. Recorded
// when the sweep took its line locks with stand-alone calls; never edited.
func TestReleaseCrashedMachineFootprint(t *testing.T) {
	for _, chained := range []bool{false, true} {
		s, _, m := newSM(t, 3, 16, LogAllLocks)
		s.Chained = chained
		shared, blocked := NameOfKey(1), NameOfKey(2)
		live, dead1, dead2 := wal.MakeTxnID(0, 1), wal.MakeTxnID(1, 1), wal.MakeTxnID(2, 1)
		for _, a := range []struct {
			txn   wal.TxnID
			name  Name
			mode  Mode
			grant bool
		}{{dead1, shared, Shared, true}, {dead2, blocked, Exclusive, true},
			// The survivor goes last, so both LCB lines end up in its cache.
			{live, shared, Shared, true}, {live, blocked, Exclusive, false}} {
			if g, err := s.Acquire(a.txn.Node(), a.txn, a.name, a.mode); err != nil || g != a.grant {
				t.Fatalf("Acquire(%v, %v) = %v, %v", a.txn, a.name, g, err)
			}
		}
		m.Crash(1, 2)
		st0, c0 := m.Stats(), m.Clock(0)
		released, err := s.ReleaseCrashed(0, []machine.NodeID{1, 2})
		if err != nil || released != 2 {
			t.Fatalf("ReleaseCrashed = %d, %v; want 2 entries", released, err)
		}
		got := footprint{st: m.Stats().Sub(st0), clock: m.Clock(0) - c0}
		if got != releaseCrashedWant {
			t.Errorf("chained=%v:\n got  %+v\n want %+v", chained, got, releaseCrashedWant)
		}
		if mode, held, err := s.Holds(0, live, blocked); err != nil || !held || mode != Exclusive {
			t.Errorf("chained=%v: survivor not promoted: %v, %v, %v", chained, mode, held, err)
		}
	}
}

// Sixteen resident lines: GetLine, read, ReleaseLine each; the two LCBs with
// crashed entries add their chain head's read and one write.
var releaseCrashedWant = local(18, 2, 16, 18100)
