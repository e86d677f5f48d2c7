package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// scanLog is one node's log as the redo scan by filter reads it: every
// record, or a down node's stable prefix, with the sets the filter consults.
type scanLog struct {
	node      machine.NodeID
	down      bool
	recs      []wal.Record
	ckpt      int // index in recs of the first record after the last checkpoint
	committed map[wal.TxnID]bool
	ntaDone   map[uint64]bool
}

func readScanLogs(db *DB, alive []machine.NodeID) []scanLog {
	up := nodeSet(alive)
	out := make([]scanLog, len(db.Logs))
	for i, l := range db.Logs {
		s := scanLog{node: machine.NodeID(i), down: !up[machine.NodeID(i)], committed: map[wal.TxnID]bool{}, ntaDone: map[uint64]bool{}}
		if s.down {
			for _, r := range l.StableRecords(0, func(*wal.Record) bool { return true }) {
				s.recs = append(s.recs, *r)
			}
		} else {
			s.recs = l.Records(1)
		}
		for j, r := range s.recs {
			switch r.Type {
			case wal.TypeCommit:
				s.committed[r.Txn] = true
			case wal.TypeNTAEnd:
				s.ntaDone[r.NTA] = true
			case wal.TypeCheckpoint:
				s.ckpt = j + 1
			}
		}
		out[i] = s
	}
	return out
}

// committedEffect is logView.committedEffect over a scanLog.
func (s *scanLog) committedEffect(r *wal.Record) bool {
	return r.Type == wal.TypeCLR || r.NTA != 0 && s.ntaDone[r.NTA] || s.committed[r.Txn]
}

// redoableByFilter is the redo scan's filter of one update or compensation
// record of s: a down node's committed effects, a survivor's every record but
// the updates of transactions dead now.
func (db *DB) redoableByFilter(s *scanLog, r *wal.Record) bool {
	if s.down {
		return s.committedEffect(r)
	}
	return r.Type != wal.TypeUpdate || r.NTA != 0 || s.committed[r.Txn] || !db.txnDead(r.Txn)
}

// scanCand is what the two scans must agree on of a candidate.
type scanCand struct {
	onto machine.NodeID
	lsn  wal.LSN
	slot int
	ver  uint64
}

func (c scanCand) String() string {
	return fmt.Sprintf("onto %d lsn %d slot %d v%d", c.onto, c.lsn, c.slot, c.ver)
}

// collectRedoByFilter is the redo scan as a filter of whole logs, kept as the
// oracle of the candidates the walks emit: node by node, the update and
// compensation records after each log's last checkpoint — a survivor's whole
// log as it is now, a down node's stable prefix — that redoableByFilter
// admits, in log order, a down node's replayed by coord.
func (db *DB) collectRedoByFilter(alive []machine.NodeID, coord machine.NodeID) []scanCand {
	var out []scanCand
	for _, s := range readScanLogs(db, alive) {
		onto := s.node
		if s.down {
			onto = coord
		}
		for i := s.ckpt; i < len(s.recs); i++ {
			r := &s.recs[i]
			if isRedoRecord(r) && db.redoableByFilter(&s, r) {
				slot, err := db.Store.SlotIndex(heap.RID{Page: r.Page, Slot: r.Slot})
				if err != nil {
					slot = -1
				}
				out = append(out, scanCand{onto: onto, lsn: r.LSN, slot: slot, ver: r.Version})
			}
		}
	}
	return out
}

// lastCommittedByFilter is lastCommittedFromStable's log search over whole
// logs: the after image of rid's newest committed effect, ok false if none.
func lastCommittedByFilter(logs []scanLog, rid heap.RID) (img []byte, ok bool) {
	var best uint64
	for _, s := range logs {
		for i := range s.recs {
			r := &s.recs[i]
			if isRedoRecord(r) && r.Page == rid.Page && r.Slot == rid.Slot && r.Version > best && s.committedEffect(r) {
				best, img, ok = r.Version, r.After, true
			}
		}
	}
	return img, ok
}

// scanScene drives a random history, from seed alone, on a 4-node database
// (node nd's transactions write its own pages 4nd..4nd+3) up to a crash, and
// returns the nodes that survive it. The history has committed and aborted
// transactions, structural changes completed and left open, checkpoints in
// mid-log while transactions are live, a node that crashed, was recovered
// and restarted carrying a dead transaction's stable updates, and a crashed
// node with committed and uncommitted stable work. Under BaselineFA the
// whole machine goes down and restarts, as its reboot does.
func scanScene(t *testing.T, proto Protocol, seed int64, cov map[string]int) (*DB, []machine.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := newNodeTestDB(t, proto, 4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	slots := db.Store.Layout.SlotsPerPage()
	rid := func(nd machine.NodeID) heap.RID {
		return heap.RID{Page: storage.PageID(4*int(nd) + rng.Intn(4)), Slot: uint16(rng.Intn(slots))}
	}
	for nd := machine.NodeID(0); nd < 4; nd++ {
		id := mustBegin(t, db, nd)
		for p := 4 * int(nd); p < 4*int(nd)+4; p++ {
			for s := 0; s < slots; s++ {
				must(db.Insert(nd, id, heap.RID{Page: storage.PageID(p), Slot: uint16(s)}, []byte{byte(p), byte(s)}))
			}
		}
		must(db.Commit(nd, id))
	}
	live := map[machine.NodeID]wal.TxnID{}
	// write gives t one to three updates on nd's pages, now and then inside
	// a structural change, completed or (open is set) left open.
	write := func(nd machine.NodeID, t wal.TxnID, open bool) {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			must(db.Update(nd, t, rid(nd), []byte{byte(rng.Intn(256)), byte(nd)}))
		}
		if open || rng.Intn(4) == 0 {
			nta, err := db.BeginNTA(nd, t)
			must(err)
			must(db.StructuralUpdate(nd, t, rid(nd), heap.FlagOccupied, []byte{0x5a, byte(nta)}, nta))
			if open {
				cov["nta-open"]++
				return
			}
			must(db.EndNTA(nd, t, nta))
			cov["nta-done"]++
		}
	}
	// history runs steps random steps on the live nodes.
	history := func(steps int) {
		for ; steps > 0; steps-- {
			alive := db.M.AliveNodes()
			nd := alive[rng.Intn(len(alive))]
			switch k := rng.Intn(12); {
			case k == 0:
				must(db.Checkpoint(nd))
				if len(live) > 0 {
					cov["checkpoint-while-live"]++
				}
			case k < 3: // begin or extend a transaction left live
				id, ok := live[nd]
				if !ok {
					id = mustBegin(t, db, nd)
					live[nd] = id
				}
				write(nd, id, false)
			case k < 5 && live[nd] != 0: // finish the live one
				if rng.Intn(2) == 0 {
					must(db.Commit(nd, live[nd]))
				} else {
					must(db.Abort(nd, live[nd]))
					cov["abort"]++
				}
				delete(live, nd)
			case k == 5: // aborted at once
				id := mustBegin(t, db, nd)
				write(nd, id, false)
				must(db.Abort(nd, id))
				cov["abort"]++
			default:
				id := mustBegin(t, db, nd)
				write(nd, id, false)
				must(db.Commit(nd, id))
			}
		}
	}
	// stableVictim leaves a live transaction with stable updates on nd (a
	// later commit there forces them), maybe with a structural change open.
	stableVictim := func(nd machine.NodeID) {
		if _, ok := live[nd]; !ok {
			live[nd] = mustBegin(t, db, nd)
		}
		write(nd, live[nd], rng.Intn(3) == 0)
		id := mustBegin(t, db, nd)
		write(nd, id, false)
		must(db.Commit(nd, id))
	}

	history(10 + rng.Intn(30))
	// A node crashes with a dead transaction's updates on its stable log, is
	// recovered and restarts: as a survivor later its log still carries them.
	r := machine.NodeID(rng.Intn(4))
	stableVictim(r)
	db.Crash(r)
	_, err := db.Recover([]machine.NodeID{r})
	must(err)
	must(db.RestartNode(r))
	delete(live, r)
	if proto == BaselineFA {
		clear(live) // the reboot aborted every transaction
	}
	history(10 + rng.Intn(30))

	c := machine.NodeID(rng.Intn(4))
	stableVictim(c)
	db.Crash(c)
	if proto == BaselineFA {
		db.Crash(db.M.AliveNodes()...)
		for n := machine.NodeID(0); n < 4; n++ {
			must(db.M.Restart(n))
			db.Logs[n].Reopen()
		}
		return db, nil
	}
	return db, db.M.AliveNodes()
}

// TestWalkEmitsTheFilteredCandidates: the candidate list the log walks emit,
// settled by collectRedo, is the list a filter of the whole logs at that
// point yields — element for element, onto, record LSN, slot and version —
// under Redo All, Selective Redo and BaselineFA's reboot, over random
// histories; and the tag scan's search of committed images finds in the
// views what it finds in the whole logs. Between the walks and collectRedo a
// survivor's log gains a tail: a live transaction's update, or its abort,
// which kills a transaction the walk saw live. Mutation-checked: a walk that
// ignores checkpoint records, or admits a dead transaction's update, fails
// it.
func TestWalkEmitsTheFilteredCandidates(t *testing.T) {
	for _, proto := range []Protocol{VolatileRedoAll, VolatileSelectiveRedo, BaselineFA} {
		t.Run(proto.String(), func(t *testing.T) {
			cov := map[string]int{}
			for seed := int64(0); seed < 40; seed++ {
				db, alive := scanScene(t, proto, seed, cov)
				coord := machine.NodeID(0)
				if alive != nil {
					coord = alive[0]
				}
				db.recovering.Store(true) // through the install gate, as Recover is
				vs, cands, _ := db.views(alive, coord)
				for _, v := range vs {
					if len(v.old) > 0 {
						cov["survivor-old-records"]++
					}
				}
				logs := readScanLogs(db, alive)
				for _, s := range logs {
					for i := range s.recs {
						if r := &s.recs[i]; !s.down && i >= s.ckpt && r.Type == wal.TypeUpdate && r.NTA == 0 && db.txnDead(r.Txn) {
							cov["survivor-dead-update"]++
						}
					}
					if s.down && len(s.committed) > 0 && len(s.recs) > 0 {
						cov["down-node"]++
					}
				}
				for p := storage.PageID(0); p < 16; p++ {
					for s := 0; s < db.Store.Layout.SlotsPerPage(); s++ {
						rid := heap.RID{Page: p, Slot: uint16(s)}
						slot, _ := db.Store.SlotIndex(rid)
						want, _ := lastCommittedByFilter(logs, rid)
						if got := lastCommittedInViews(rid, slot, vs); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
							t.Fatalf("seed %d: last committed image of %v from the views %x, from the logs %x", seed, rid, got, want)
						}
						if want != nil && lastCommittedInViews(rid, slot, noOld(vs)) == nil {
							cov["old-record-is-last-committed"]++
						}
					}
				}
				if alive != nil {
					stageTail(t, db, alive, seed, cov)
				}
				gotCands := db.collectRedo(vs, cands)
				want := db.collectRedoByFilter(alive, coord)
				got := make([]scanCand, len(gotCands))
				for i, c := range gotCands {
					got[i] = scanCand{onto: c.onto, lsn: c.rec.LSN, slot: int(c.slot), ver: c.ver}
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("seed %d: candidate %d of %d is %v, the filter's %v", seed, i, len(want), got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d candidates, the filter's %d", seed, len(got), len(want))
				}
			}
			// The histories exercised what they are for.
			t.Logf("histories: %v", cov)
			need := []string{"nta-open", "nta-done", "abort", "checkpoint-while-live", "down-node"}
			if proto != BaselineFA {
				need = append(need, "survivor-old-records", "old-record-is-last-committed", "survivor-dead-update", "tail", "died-since-walk")
			}
			for _, k := range need {
				if cov[k] == 0 {
					t.Errorf("no history had %s: %v", k, cov)
				}
			}
		})
	}
}

// noOld returns copies of vs without the survivors' records from before
// their last checkpoints.
func noOld(vs []*logView) []*logView {
	out := make([]*logView, len(vs))
	for i, v := range vs {
		c := *v
		c.old = nil
		out[i] = &c
	}
	return out
}

// stageTail gives a survivor's log records after the walk: a live
// transaction's further update, or its abort, or a fresh committed one.
func stageTail(t *testing.T, db *DB, alive []machine.NodeID, seed int64, cov map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range alive {
		var t0 wal.TxnID
		for _, id := range db.ActiveTxns(nd) {
			if st := db.lookup(id); st != nil && st.live() && db.WriteCount(id) > 0 {
				t0 = id
			}
		}
		switch k := rng.Intn(3); {
		case t0 != 0 && k == 0:
			if err := db.Abort(nd, t0); err != nil {
				t.Fatal(err)
			}
			cov["died-since-walk"]++
			cov["tail"]++
		case t0 != 0 && k == 1:
			mustUpdate(t, db, nd, t0, heap.RID{Page: storage.PageID(4 * int(nd)), Slot: 0}, 0x7e)
			cov["tail"]++
		case k == 2:
			id := mustBegin(t, db, nd)
			mustUpdate(t, db, nd, id, heap.RID{Page: storage.PageID(4*int(nd) + 1), Slot: 1}, 0x7f)
			if err := db.Commit(nd, id); err != nil {
				t.Fatal(err)
			}
			cov["tail"]++
		}
	}
}
