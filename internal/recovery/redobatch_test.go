package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// applyRedoPerRecord is the redo apply phase one candidate at a time, kept
// as the oracle of the two-pass applyRedo: the list in list order, one line
// section per maximal run of candidates sharing a line and a replaying node,
// each candidate version-checked against its slot and written if it applies.
func (db *DB) applyRedoPerRecord(cands []redoCand, rep *RecoveryReport) error {
	var pb progressBatch
	defer db.flushProgress(&pb, obs.PhaseRedoApply)
	lo := 0
	var line machine.LineID
	for i, c := range cands {
		l, _, err := db.Store.LineOf(heap.RID{Page: c.rec.Page, Slot: c.rec.Slot})
		if err != nil {
			return err
		}
		if i > lo && (l != line || c.onto != cands[lo].onto) {
			if err := db.applyRedoRun(cands[lo:i], cands[lo].onto, line, rep, &pb); err != nil {
				return err
			}
			lo = i
		}
		line = l
	}
	if lo == len(cands) {
		return nil
	}
	return db.applyRedoRun(cands[lo:], cands[lo].onto, line, rep, &pb)
}

// applyRedoRun applies one same-line run as the steps of one line section.
func (db *DB) applyRedoRun(run []redoCand, onto machine.NodeID, line machine.LineID, rep *RecoveryReport, pb *progressBatch) error {
	page := run[0].rec.Page
	if !db.M.Resident(line) || !db.M.Resident(db.Store.HeaderLine(page)) {
		if err := db.BM.Fetch(onto, page); err != nil {
			return err
		}
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, onto, line); err != nil {
		return err
	}
	applied, skipped, bytes := 0, 0, 0
	var werr error
	var buf heap.SlotBuf
	for _, c := range run {
		rid := heap.RID{Page: c.rec.Page, Slot: c.rec.Slot}
		cur, err := db.Store.ReadSlotIn(&sec, rid, &buf)
		if err != nil {
			werr = err
			break
		}
		if cur.Version >= c.rec.Version {
			skipped++
			continue
		}
		flags, data := splitImage(c.rec.After)
		if err := db.Store.WriteSlotIn(&sec, rid, heap.SlotData{
			Tag: db.redoTag(c.rec), Flags: flags, Version: c.rec.Version, Data: data,
		}, &buf); err != nil {
			werr = err
			break
		}
		applied++
		bytes += len(c.rec.After)
	}
	db.mustLeave(&sec, onto)
	if applied > 0 {
		db.BM.MarkDirty(page)
	}
	rep.RedoApplied += applied
	rep.RedoSkipped += skipped
	db.noteProgress(pb, obs.PhaseRedoApply, applied+skipped, bytes)
	return werr
}

// redoScenePages is how many pages (from page 1 on) a redo scene covers.
const redoScenePages = 6

// redoScene builds, from seed alone, a database at its redo apply phase and
// a candidate list for it. Every slot of the scene's pages holds a committed
// record, flushed to disk. A live transaction on each of the four nodes has
// updated three slots; then node 3 crashed, taking the lines only its cache
// held, so some lines need a fetch. The candidates cluster on few lines, so
// lines recur with several replaying nodes and slots repeat; versions are
// drawn at random, below and above the slots' own, out of list order; they
// are updates and CLRs, some inside nested top-level actions, of the live
// transactions, the crashed one and one the engine no longer knows.
func redoScene(t *testing.T, proto Protocol, seed int64) (*DB, []redoCand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := newNodeTestDB(t, proto, 4)
	lay := db.Store.Layout
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := storage.PageID(1); p <= redoScenePages; p++ {
		nd := machine.NodeID(int(p) % 4)
		id, err := db.Begin(nd)
		must(err)
		for s := 0; s < lay.SlotsPerPage(); s++ {
			must(db.Insert(nd, id, heap.RID{Page: p, Slot: uint16(s)}, []byte{byte(p), byte(s)}))
		}
		must(db.Commit(nd, id))
		must(db.BM.FlushPage(nd, p))
	}
	txns := []wal.TxnID{wal.MakeTxnID(1, 999)}
	for nd := machine.NodeID(0); nd < 4; nd++ {
		id, err := db.Begin(nd)
		must(err)
		for k := 0; k < 3; k++ {
			rid := heap.RID{Page: storage.PageID(1 + rng.Intn(redoScenePages)), Slot: uint16(3*int(nd) + k)}
			must(db.Update(nd, id, rid, []byte{0xee, byte(nd)}))
		}
		txns = append(txns, id)
	}
	db.Crash(3)
	top := int64(db.NextVersion()) + 40
	lines := redoScenePages * (lay.LinesPerPage - 1)
	hot := 2 + rng.Intn(lines-1) // the candidates' lines: 2 .. all of them
	cands := make([]redoCand, 20+rng.Intn(140))
	for i := range cands {
		line := rng.Intn(hot)
		rec := &wal.Record{
			Type: wal.TypeUpdate, Txn: txns[rng.Intn(len(txns))],
			Page: storage.PageID(1 + line/(lay.LinesPerPage-1)), Slot: uint16(line%(lay.LinesPerPage-1)*lay.RecsPerLine + rng.Intn(lay.RecsPerLine)),
			Version: uint64(1 + rng.Int63n(top)),
			After:   SlotImage(lay, heap.FlagOccupied|byte(rng.Intn(2))*heap.FlagDeleted, []byte{byte(i), byte(seed)}),
		}
		if rng.Intn(4) == 0 {
			rec.Type = wal.TypeCLR
		}
		if rng.Intn(5) == 0 {
			rec.NTA = uint64(1 + rng.Intn(3))
		}
		cands[i] = db.candidate(machine.NodeID(rng.Intn(3)), rec)
	}
	return db, cands
}

// redoState is what the apply phase leaves behind that the two paths must
// agree on: every slot of the scene's pages (or "lost" for a line no cache
// holds), the dirty pages and the report's counts.
type redoState struct {
	slots            []string
	dirty            []storage.PageID
	applied, skipped int
}

func snapshotRedo(t *testing.T, db *DB, rep *RecoveryReport) redoState {
	t.Helper()
	st := redoState{dirty: db.BM.DirtyPages(), applied: rep.RedoApplied, skipped: rep.RedoSkipped}
	for p := storage.PageID(1); p <= redoScenePages; p++ {
		for s := 0; s < db.Store.Layout.SlotsPerPage(); s++ {
			rid := heap.RID{Page: p, Slot: uint16(s)}
			if line, _, _ := db.Store.LineOf(rid); !db.M.Resident(line) {
				st.slots = append(st.slots, rid.String()+" lost")
				continue
			}
			var buf heap.SlotBuf
			sd, err := db.Store.ReadSlot(0, rid, &buf)
			if err != nil {
				t.Fatal(err)
			}
			st.slots = append(st.slots, fmt.Sprintf("%v tag=%d flags=%d v=%d %x", rid, sd.Tag, sd.Flags, sd.Version, sd.Data))
		}
	}
	return st
}

// TestTwoPassApplyMatchesPerRecord: over random candidate lists, under Redo
// All and under Selective Redo (which sets undo tags), the two-pass apply
// leaves every slot image, tag and version, the dirty pages and the
// applied/skipped counts exactly as applying the candidates one at a time
// does. Mutation-checked: writing a slot's first applied candidate instead
// of its last, or writing no undo tag, fails it.
func TestTwoPassApplyMatchesPerRecord(t *testing.T) {
	for _, proto := range []Protocol{VolatileRedoAll, VolatileSelectiveRedo} {
		t.Run(proto.String(), func(t *testing.T) {
			var fetched, tagged, skipped int
			for seed := int64(0); seed < 40; seed++ {
				apply := func(f func(*DB, []redoCand, *RecoveryReport) error) redoState {
					db, cands := redoScene(t, proto, seed)
					db.recovering.Store(true) // through the install gate, as Recover is
					for _, c := range cands {
						if db.redoTag(c.rec) != machine.NoNode {
							tagged++
						}
					}
					fetches := db.BM.Stats().DiskFetches
					var rep RecoveryReport
					if err := f(db, cands, &rep); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					fetched += int(db.BM.Stats().DiskFetches - fetches)
					return snapshotRedo(t, db, &rep)
				}
				want := apply((*DB).applyRedoPerRecord)
				got := apply((*DB).applyRedo)
				skipped += want.skipped
				if !reflect.DeepEqual(got, want) {
					for i := range want.slots {
						if i < len(got.slots) && got.slots[i] != want.slots[i] {
							t.Errorf("seed %d: %s, per record %s", seed, got.slots[i], want.slots[i])
						}
					}
					t.Fatalf("seed %d: two-pass apply left\n %d applied, %d skipped, dirty %v\nper record:\n %d applied, %d skipped, dirty %v",
						seed, got.applied, got.skipped, got.dirty, want.applied, want.skipped, want.dirty)
				}
			}
			// The scenes exercised what they are for.
			if fetched == 0 || skipped == 0 || (proto.UndoTagging() && tagged == 0) {
				t.Errorf("scenes made %d fetches, %d skips, %d candidates that set an undo tag", fetched, skipped, tagged)
			}
		})
	}
}
