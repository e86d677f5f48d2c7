package recovery

import (
	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
)

// Redo apply in two passes. Version-checked redo (section 4.1.2) leaves each
// slot with the image of its winner: the last candidate, in list order, whose
// version beats the slot's and every earlier winner's. So the apply phase
// decides first and writes once, and enters each line at most twice however
// many candidates it carries.
//
// Pass 1 decides and writes nothing. It walks the list in list order (log
// order), reading at each candidate the slot index and version it carries,
// and at a line's first candidate runs the residency probe (fetching the page
// if the line or its header was lost) and reads the whole line in one
// section, entered by that candidate's replaying node. So it reads a record
// only there and for an applied candidate (its image's length, for
// progress). From there each of the line's slots has a running version,
// starting at the one on the line: a candidate applies iff its version is
// higher, the per-record rule, and becomes the slot's winner.
// Pass 2 goes through the lines pass 1 read, in the order it read them, and
// gives each line with a winner one section, entered by the node of its last
// winner in list order: it writes every winning slot's after image with its
// undo tag and marks the page dirty. Only the winners' images are read.
//
// Applying the candidates one at a time instead reads the same versions (the
// line is quiesced during the apply phase: crashes fire only at phase
// boundaries while recovery runs), so RedoApplied, RedoSkipped, progress and
// the final images, tags and versions are the same
// (TestTwoPassApplyMatchesPerRecord). The simulated machine does less: a
// line costs one read, a write per winning slot and two line locks (one if
// nothing on it applies), where each same-line run of the list cost a line
// lock, a read per candidate and a write per apply, and after redo the last
// winner's node holds each written line exclusively. In log order a line seldom recurs at once:
// recover-selective's 28 136 candidates made 27 848 runs over 448 lines, and
// 22 400 of them were skipped. An earlier regrouping of the list by line cut
// the sections as far but lost (DESIGN.md §6b): it read every candidate's
// image, scattered over ~12 MB. The two passes took the traced redo-apply
// phase there from 4.9-6.9 ms to 1.0-1.2 ms a recovery, and
// recover_time_rel from 0.177 to 0.110 (medians of ten alternating 22 s
// pairs on a 2-vCPU host).

// redoSlot is one slot's entry in the apply phase's table, DB.redo, indexed
// by heap.Store.SlotIndex and all zero outside applyRedo. DB.redoLines lists
// the table index of each line's first slot as pass 1 reads the line; its
// capacity is the store's data line count, so it never grows.
type redoSlot struct {
	// ver is the slot's running version: the one on the line, then each
	// applied candidate's.
	ver uint64
	// win is the slot's winner, as its list index + 1; 0 while none applied.
	win int32
	// read is set once pass 1 has read the slot's line.
	read bool
}

// applyRedo is the redo apply phase: version-checked, idempotent replay of
// cands, decided in list order by pass 1 and written by pass 2, one section
// per line each.
func (db *DB) applyRedo(cands []redoCand, rep *RecoveryReport) error {
	err := db.decideRedo(cands, rep)
	if err == nil {
		err = db.writeRedo(cands)
	}
	for _, first := range db.redoLines {
		clear(db.redo[first : first+db.Store.Layout.RecsPerLine])
	}
	db.redoLines = db.redoLines[:0]
	return err
}

// decideRedo is pass 1.
func (db *DB) decideRedo(cands []redoCand, rep *RecoveryReport) error {
	var pb progressBatch
	defer db.flushProgress(&pb, obs.PhaseRedoApply)
	for i, c := range cands {
		if c.slot < 0 {
			_, err := db.Store.SlotIndex(heap.RID{Page: c.rec.Page, Slot: c.rec.Slot})
			return err
		}
		e := &db.redo[c.slot]
		if !e.read {
			if err := db.readRedoLine(c); err != nil {
				return err
			}
		}
		// Skips consume planned candidates too: progress counts toward the
		// planned total either way, keeping the ETA honest.
		if c.ver > e.ver {
			e.ver, e.win = c.ver, int32(i+1)
			rep.RedoApplied++
			db.noteProgress(&pb, obs.PhaseRedoApply, 1, len(c.rec.After))
		} else {
			rep.RedoSkipped++
			db.noteProgress(&pb, obs.PhaseRedoApply, 1, 0)
		}
	}
	return nil
}

// readRedoLine is pass 1's one visit to a line, at its first candidate c:
// Selective Redo's residency probe (the "cache miss with I/O disabled" test)
// — if the line or its page's header was lost, the page fetch reinstalls
// exactly the missing lines from the stable database — and one read of the
// whole line, whose slot versions start the running versions.
func (db *DB) readRedoLine(c redoCand) error {
	line, _, err := db.Store.LineOf(heap.RID{Page: c.rec.Page, Slot: c.rec.Slot})
	if err != nil {
		return err
	}
	if !db.M.Resident(line) || !db.M.Resident(db.Store.HeaderLine(c.rec.Page)) {
		if err := db.BM.Fetch(c.onto, c.rec.Page); err != nil {
			return err
		}
	}
	var sec machine.Section
	if err := db.M.Enter(&sec, c.onto, line); err != nil {
		return err
	}
	var buf heap.SlotBuf
	img, err := db.Store.ReadLineIn(&sec, &buf)
	db.mustLeave(&sec, c.onto)
	if err != nil {
		return err
	}
	first := int(c.slot) - int(c.rec.Slot)%db.Store.Layout.RecsPerLine
	for j := range db.Store.Layout.RecsPerLine {
		db.redo[first+j] = redoSlot{ver: heap.DecodeSlotFromLine(db.Store.Layout, img, j).Version, read: true}
	}
	db.redoLines = append(db.redoLines, first)
	return nil
}

// writeRedo is pass 2: each line pass 1 read that has a winner, in the order
// pass 1 read them, written in one section entered by the node of the
// line's last winner in list order.
func (db *DB) writeRedo(cands []redoCand) error {
	for _, first := range db.redoLines {
		slots := db.redo[first : first+db.Store.Layout.RecsPerLine]
		var last int32
		for _, e := range slots {
			last = max(last, e.win)
		}
		if last == 0 {
			continue
		}
		onto, rec := cands[last-1].onto, cands[last-1].rec
		line, _, err := db.Store.LineOf(heap.RID{Page: rec.Page, Slot: rec.Slot})
		if err != nil {
			return err
		}
		var sec machine.Section
		if err := db.M.Enter(&sec, onto, line); err != nil {
			return err
		}
		var buf heap.SlotBuf
		for _, e := range slots {
			if e.win == 0 {
				continue
			}
			w := cands[e.win-1].rec
			flags, data := splitImage(w.After)
			if err = db.Store.WriteSlotIn(&sec, heap.RID{Page: w.Page, Slot: w.Slot}, heap.SlotData{
				Tag: db.redoTag(w), Flags: flags, Version: w.Version, Data: data,
			}, &buf); err != nil {
				break
			}
		}
		db.mustLeave(&sec, onto)
		db.BM.MarkDirty(rec.Page)
		if err != nil {
			return err
		}
	}
	return nil
}
