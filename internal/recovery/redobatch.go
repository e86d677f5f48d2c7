package recovery

import (
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
)

// Batched redo apply. The per-record apply path paid one residency probe,
// one transaction-table lookup (undo-tag restoration), and one stripe
// acquire/release per candidate — most of the apply phase's cost was
// exactly that per-record overhead, not the slot writes. The batched path
// carves the candidate list into maximal contiguous same-line runs and pays
// each overhead once per run: one residency probe and fetch, one line
// section whose steps are all of the run's version checks and slot writes
// (one line lock, one stripe hold, one slot buffer). An undo tag is looked
// up, lock-free, only for an apply.
//
// Consecutive candidates seldom share a line: in log order a line recurs
// far apart, and recover-redoall's 28 136 candidates carve into 27 848 runs
// over 448 lines. Regrouping them by line was measured and lost (DESIGN.md
// §6b): sections fell about 60x, but the apply then read records and
// images scattered over ~12 MB, and recovery got slower.
//
// Equivalence: candidates are applied in exactly the list order the
// per-record path used, and every version-check decision reads the same slot
// state (the line is quiesced during the apply phase — crashes fire only at
// phase boundaries while recovery runs), so RedoApplied/RedoSkipped and the
// final images are bit-identical; only machine-level fetch/acquisition
// counts change, which the equivalence gate deliberately excludes.

// redoRun is one maximal contiguous stretch of redo candidates that share a
// cache line (hence a page) and a replaying node.
type redoRun struct {
	onto   machine.NodeID
	line   machine.LineID
	lo, hi int // candidate index range [lo, hi)
}

// carveRuns splits cands into contiguous same-(line, onto) runs, reusing
// db.redoRuns across Recover calls. There are at most as many runs as
// candidates, so a buffer too small for that is replaced once, not grown run
// by run.
func (db *DB) carveRuns(cands []redoCand) ([]redoRun, error) {
	if cap(db.redoRuns) < len(cands) {
		db.redoRuns = make([]redoRun, 0, len(cands))
	}
	runs := db.redoRuns[:0]
	for i, c := range cands {
		line, _, err := db.Store.LineOf(heap.RID{Page: c.rec.Page, Slot: c.rec.Slot})
		if err != nil {
			return nil, err
		}
		if n := len(runs); n > 0 && runs[n-1].line == line && runs[n-1].onto == c.onto {
			runs[n-1].hi = i + 1
			continue
		}
		runs = append(runs, redoRun{onto: c.onto, line: line, lo: i, hi: i + 1})
	}
	db.redoRuns = runs
	return runs, nil
}

// applyRedo is the redo apply phase: version-checked, idempotent replay of
// cands, run by run, in list order.
func (db *DB) applyRedo(cands []redoCand, rep *RecoveryReport) error {
	runs, err := db.carveRuns(cands)
	if err != nil {
		return err
	}
	var pb progressBatch
	defer db.flushProgress(&pb, obs.PhaseRedoApply)
	for _, r := range runs {
		if err := db.applyRedoRun(cands[r.lo:r.hi], r.onto, r.line, rep, &pb); err != nil {
			return err
		}
	}
	return nil
}

// applyRedoRun applies one same-line run as the steps of one line section.
func (db *DB) applyRedoRun(run []redoCand, onto machine.NodeID, line machine.LineID, rep *RecoveryReport, pb *progressBatch) error {
	page := run[0].rec.Page
	// Selective Redo's residency probe (the "cache miss with I/O disabled"
	// test), once per run: if the line was lost, the page fetch reinstalls
	// exactly the missing lines from the stable database before any version
	// check runs against it.
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
	// Skips consume planned candidates too: progress counts toward the
	// planned total either way, keeping the ETA honest.
	db.noteProgress(pb, obs.PhaseRedoApply, applied+skipped, bytes)
	return werr
}
