package recovery

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/wal"
)

// The deadlock chase (youngestOnCycle) is checked against the whole-table
// oracle it replaced on the transaction path: lock.SMManager.WaitsFor reads
// every LCB and draws every edge, written independently of lock.Look.

// youngestOnCycleOracle reports whether t is the largest ID on some cycle of
// g: whether t reaches itself in g restricted to transactions no younger than
// it. Out-edges of transactions on down nodes are dropped first — their state
// died with the node, recovery releases what they hold and nothing they wait
// for holds anybody up.
func youngestOnCycleOracle(db *DB, g map[wal.TxnID][]wal.TxnID, t wal.TxnID) bool {
	reach := map[wal.TxnID]bool{}
	var visit func(u wal.TxnID)
	visit = func(u wal.TxnID) {
		if !db.M.Alive(u.Node()) {
			return
		}
		for _, v := range g[u] {
			if v <= t && !reach[v] {
				reach[v] = true
				visit(v)
			}
		}
	}
	visit(t)
	return reach[t]
}

func mustBegin(t *testing.T, db *DB, nd machine.NodeID) wal.TxnID {
	t.Helper()
	id, err := db.Begin(nd)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// lockStep is one db.Lock call and what it must return.
type lockStep struct {
	id      wal.TxnID
	name    lock.Name
	mode    lock.Mode
	granted bool
	err     error
}

func runLockSteps(t *testing.T, db *DB, steps []lockStep) {
	t.Helper()
	for i, s := range steps {
		if got, err := db.Lock(s.id, s.name, s.mode); err != s.err || got != s.granted {
			t.Fatalf("step %d: Lock(%v, %v, %v) = %v, %v; want %v, %v", i, s.id, s.name, s.mode, got, err, s.granted, s.err)
		}
	}
}

// TestChaseFixedCycles: the shapes a waits-for cycle comes in, each broken by
// its youngest member at that member's next attempt and by nobody else.
func TestChaseFixedCycles(t *testing.T) {
	a, b, c := lock.NameOfKey(1), lock.NameOfKey(2), lock.NameOfKey(3)
	const S, X = lock.Shared, lock.Exclusive
	for _, chained := range []bool{false, true} {
		newDB := func(t *testing.T) (*DB, wal.TxnID, wal.TxnID, wal.TxnID) {
			db, err := New(Config{Machine: machine.Config{Nodes: 3, Lines: 4096}, Protocol: VolatileSelectiveRedo,
				LinesPerPage: 4, RecsPerLine: 4, Pages: 16, LockTableLines: 64, ChainedLCBs: chained})
			if err != nil {
				t.Fatal(err)
			}
			// Ascending IDs: t1 is the oldest, t3 the youngest.
			return db, mustBegin(t, db, 0), mustBegin(t, db, 1), mustBegin(t, db, 2)
		}
		t.Run(fmt.Sprintf("chained=%v/2-cycle closed by the older", chained), func(t *testing.T) {
			db, t1, t2, _ := newDB(t)
			runLockSteps(t, db, []lockStep{
				{t1, a, X, true, nil}, {t2, b, X, true, nil},
				{t2, a, X, false, nil},
				{t1, b, X, false, nil},         // closes the cycle; t2 is the one to go
				{t1, b, X, false, nil},         // however often the older polls
				{t2, a, X, false, ErrDeadlock}, // the younger's next poll
			})
			if err := db.Abort(t2.Node(), t2); err != nil {
				t.Fatal(err)
			}
			runLockSteps(t, db, []lockStep{{t1, b, X, true, nil}})
		})
		t.Run(fmt.Sprintf("chained=%v/3-cycle", chained), func(t *testing.T) {
			db, t1, t2, t3 := newDB(t)
			runLockSteps(t, db, []lockStep{
				{t1, a, X, true, nil}, {t2, b, X, true, nil}, {t3, c, X, true, nil},
				{t3, a, X, false, nil}, {t2, c, X, false, nil},
				{t1, b, X, false, nil}, // t1 -> t2 -> t3 -> t1
				{t2, c, X, false, nil},
				{t3, a, X, false, ErrDeadlock},
			})
		})
		t.Run(fmt.Sprintf("chained=%v/upgrade-upgrade", chained), func(t *testing.T) {
			db, t1, t2, _ := newDB(t)
			runLockSteps(t, db, []lockStep{
				{t1, a, S, true, nil}, {t2, a, S, true, nil},
				{t1, a, X, false, nil},
				{t2, a, X, false, ErrDeadlock},
			})
			if held, queued := db.TxnLocks(t2); !slices.Equal(held, []LockEntry{{a, S}}) || len(queued) != 0 {
				t.Fatalf("victim records held %v, queued %v; want its shared grant and nothing queued", held, queued)
			}
		})
		t.Run(fmt.Sprintf("chained=%v/waits into a cycle it is not on", chained), func(t *testing.T) {
			db, t1, t2, t3 := newDB(t)
			runLockSteps(t, db, []lockStep{
				{t1, a, X, true, nil}, {t2, b, X, true, nil},
				{t2, a, X, false, nil}, {t1, b, X, false, nil}, // the cycle, its victim yet to poll
				// The youngest of all waits for both members and is on no cycle.
				{t3, a, X, false, nil}, {t3, a, X, false, nil},
				{t2, a, X, false, ErrDeadlock},
			})
		})
		t.Run(fmt.Sprintf("chained=%v/cycle through an earlier waiter", chained), func(t *testing.T) {
			db, t1, t2, t3 := newDB(t)
			runLockSteps(t, db, []lockStep{
				{t1, a, S, true, nil}, {t3, b, X, true, nil},
				{t2, a, X, false, nil}, // queued behind t1's shared hold
				{t2, b, S, false, nil}, // its driver moved on: t2 -> t3 as well
				// Compatible with the holder, but FIFO behind t2's exclusive
				// request: t3 -> t2 -> t3, and no holder edge closes it.
				{t3, a, S, false, ErrDeadlock},
			})
		})
	}
}

// TestChaseMatchesWaitsFor builds random lock spaces straight in the lock
// table — shared and exclusive holders, upgrade waiters, FIFO queues, several
// queued requests per transaction, LCBs that overflow into chains, and the
// entries of a node that then crashes — with every queued request recorded
// where Lock records it, and has each waiting transaction poll: Lock must name
// it the victim exactly when the oracle does.
func TestChaseMatchesWaitsFor(t *testing.T) {
	const nodes, txnsPerNode, names = 4, 3, 4
	for _, chained := range []bool{false, true} {
		victims, polls := 0, 0
		for seed := int64(0); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Five entries to an LCB line: a popular lock overflows into a
			// chain (or, unchained, refuses the sixth request).
			db, err := New(Config{Machine: machine.Config{Nodes: nodes, Lines: 4096, LineSize: 64}, Protocol: VolatileSelectiveRedo,
				LinesPerPage: 4, RecsPerLine: 2, Pages: 16, LockTableLines: 64, ChainedLCBs: chained})
			if err != nil {
				t.Fatal(err)
			}
			var txns []wal.TxnID
			for i := 0; i < nodes*txnsPerNode; i++ {
				txns = append(txns, mustBegin(t, db, machine.NodeID(i%nodes)))
			}
			for i := 0; i < 30; i++ {
				id := txns[rng.Intn(len(txns))]
				name, mode := lock.NameOfKey(uint64(rng.Intn(names))), lock.Mode(1+rng.Intn(2))
				nc, st, _ := db.txn(id)
				if len(st.wants) > 0 && rng.Intn(3) > 0 {
					continue // mostly a waiter waits; sometimes its driver moves on
				}
				granted, err := db.Locks.Acquire(id.Node(), id, name, mode)
				if errors.Is(err, lock.ErrLCBFull) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				nc.mu.Lock()
				if granted {
					st.locks = noteLock(st.locks, name, mode)
				} else {
					st.wants = noteLock(st.wants, name, mode)
				}
				nc.mu.Unlock()
			}
			if seed%3 == 0 {
				// Node 0 reads the whole table, so every LCB outlives the crash
				// of the last node, whose transactions' entries stay behind.
				if _, err := db.Locks.Snapshot(0); err != nil {
					t.Fatal(err)
				}
				db.Crash(nodes - 1)
			}
			rng.Shuffle(len(txns), func(i, j int) { txns[i], txns[j] = txns[j], txns[i] })
			for _, id := range txns {
				_, queued := db.TxnLocks(id)
				if len(queued) == 0 || !db.txnLive(id) {
					continue
				}
				g, err := db.Locks.WaitsFor(0)
				if err != nil {
					t.Fatal(err)
				}
				want := youngestOnCycleOracle(db, g, id)
				w := queued[rng.Intn(len(queued))]
				granted, err := db.Lock(id, w.Name, w.Mode)
				if err != nil && err != ErrDeadlock {
					t.Fatal(err)
				}
				if granted {
					continue // promoted by a victim's release: this attempt was not blocked
				}
				polls++
				if got := err == ErrDeadlock; got != want {
					snap, _ := db.Locks.Snapshot(0)
					t.Fatalf("chained=%v seed %d: Lock(%v, %v) victim = %v, oracle says %v\nwaits-for: %v\nlock space: %+v",
						chained, seed, id, w.Name, got, want, g, snap)
				}
				if err == ErrDeadlock {
					victims++
					if err := db.ReleaseLocks(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// The spaces must actually exercise both verdicts.
		if victims < 50 || polls-victims < 50 {
			t.Errorf("chained=%v: %d victims in %d polls; the generator no longer covers both verdicts", chained, victims, polls)
		}
	}
}

// TestBlockedAttemptFootprint: what a blocked attempt costs the simulated
// machine is its own wait chain — the look at its LCB and one look per queued
// request of each transaction it transitively waits for — whatever the size
// and population of the lock table; and however often a queued request is
// polled it stays one acquire record, one waiter entry and one counted wait.
func TestBlockedAttemptFootprint(t *testing.T) {
	for _, tableLines := range []int{64, 2048} {
		db, err := New(Config{Machine: machine.Config{Nodes: 4, Lines: 1 << 14}, Protocol: VolatileSelectiveRedo,
			LinesPerPage: 4, RecsPerLine: 4, Pages: 16, LockTableLines: tableLines})
		if err != nil {
			t.Fatal(err)
		}
		// Bystanders populate a quarter of the small table.
		by := mustBegin(t, db, 3)
		for k := 0; k < 16; k++ {
			runLockSteps(t, db, []lockStep{{by, lock.NameOfKey(uint64(100 + k)), lock.Exclusive, true, nil}})
		}
		// t3 waits for t2, which waits for t1, which runs.
		a, b := lock.NameOfKey(1), lock.NameOfKey(2)
		t1, t2, t3 := mustBegin(t, db, 0), mustBegin(t, db, 1), mustBegin(t, db, 2)
		runLockSteps(t, db, []lockStep{
			{t1, a, lock.Exclusive, true, nil}, {t2, b, lock.Exclusive, true, nil},
			{t2, a, lock.Exclusive, false, nil}, {t3, b, lock.Exclusive, false, nil},
		})
		logged := func() (n int) {
			for _, rec := range db.Logs[2].Records(0) {
				if rec.Type == wal.TypeLockAcquire && rec.Txn == t3 {
					n++
				}
			}
			return n
		}
		ls0, ms0, log0 := db.Locks.Stats(), db.M.Stats(), logged()
		const polls = 10
		for i := 0; i < polls; i++ {
			runLockSteps(t, db, []lockStep{{t3, b, lock.Exclusive, false, nil}})
		}
		ls, ms := db.Locks.Stats().Sub(ls0), db.M.Stats().Sub(ms0)
		// Two looks per poll (t3's LCB, then t2's), each one read per slot it
		// probes, the first under the home slot's line lock, where both LCBs
		// are.
		if want := ls.Probes; ms.Reads != want || ms.Writes != 0 || ms.LineLockAcquires != 2*polls {
			t.Errorf("%d-line table: %d polls cost %d reads, %d writes, %d line locks; want %d (%d probes), 0, %d",
				tableLines, polls, ms.Reads, ms.Writes, ms.LineLockAcquires, want, ls.Probes, 2*polls)
		}
		if ls.Probes > 2*2*polls {
			t.Errorf("%d-line table: %d probes for %d looks", tableLines, ls.Probes, 2*polls)
		}
		if ls.Acquires != 0 || ls.Waits != 0 || ls.LockLogs != 0 || logged() != log0 || log0 != 1 {
			t.Errorf("%d-line table: polls counted %+v and logged %d acquire records on top of %d; want none on top of 1", tableLines, ls, logged()-log0, log0)
		}
		if row := lockRow(t, db, b); len(row.Waiters) != 1 || row.Waiters[0].Txn != t3 {
			t.Errorf("%d-line table: LCB after %d polls: %+v; want t3 queued once", tableLines, polls, row)
		}
	}
}
