package wal

import (
	"bytes"
	"reflect"
	"testing"

	"smdb/internal/storage"
)

// flatLog is the log as it was before its records moved into fixed-size
// blocks: one slice of records, one device buffer. It is kept here only as
// the oracle the block log is compared against.
type flatLog struct {
	recs   []Record
	first  LSN
	forced int
	down   bool
	dev    []byte
}

func newFlatLog() *flatLog { return &flatLog{first: 1} }

func (f *flatLog) append(r Record) LSN {
	if f.down {
		return 0
	}
	r.LSN = f.first + LSN(len(f.recs))
	f.recs = append(f.recs, r)
	return r.LSN
}

func (f *flatLog) encode(from, to int) []byte {
	var buf []byte
	for i := from; i < to; i++ {
		buf = append(buf, Marshal(&f.recs[i])...)
	}
	return buf
}

func (f *flatLog) clamp(upto LSN) int {
	idx := int(upto-f.first) + 1
	if idx > len(f.recs) {
		idx = len(f.recs)
	}
	return idx
}

func (f *flatLog) force(upto LSN) (int, bool) {
	idx := f.clamp(upto)
	if f.down || idx <= f.forced {
		return 0, false
	}
	f.dev = append(f.dev, f.encode(f.forced, idx)...)
	n := idx - f.forced
	f.forced = idx
	return n, true
}

func (f *flatLog) forceTorn(upto LSN, frac float64) (whole, torn int) {
	idx := f.clamp(upto)
	if f.down {
		return 0, 0
	}
	f.down = true
	if idx <= f.forced {
		return 0, 0
	}
	buf := f.encode(f.forced, idx)
	limit := int(frac * float64(len(buf)))
	if limit >= len(buf) {
		limit = len(buf) - 1
	}
	torn = limit
	for i := f.forced; torn >= EncodedSize(&f.recs[i]); i++ {
		torn -= EncodedSize(&f.recs[i])
		whole++
	}
	f.dev = append(f.dev, buf[:limit]...)
	f.forced += whole
	return whole, torn
}

func (f *flatLog) crash() int {
	f.down = true
	lost := len(f.recs) - f.forced
	f.recs = f.recs[:f.forced]
	return lost
}

func (f *flatLog) reopen() {
	f.down = false
	if _, torn := DecodeAll(f.dev); torn > 0 {
		f.dev = f.dev[:len(f.dev)-torn]
	}
}

func (f *flatLog) discardThrough(upto LSN) int {
	if max := f.first + LSN(f.forced) - 1; upto > max {
		upto = max
	}
	drop := int(upto-f.first) + 1
	if drop <= 0 {
		return 0
	}
	f.recs = append([]Record(nil), f.recs[drop:]...)
	f.first = upto + 1
	f.forced -= drop
	f.dev = f.encode(0, f.forced)
	return drop
}

// TestBlockLogMatchesFlatLog runs one script against the block log and the
// flat-slice oracle, with every step chosen to straddle a block edge, and
// compares everything a caller can observe after each step — including the
// device bytes.
func TestBlockLogMatchesFlatLog(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(2, dev)
	if err != nil {
		t.Fatal(err)
	}
	f := newFlatLog()
	txns := []TxnID{MakeTxnID(2, 1), MakeTxnID(2, 2), MakeTxnID(2, 3), 0}
	seq := 0
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq++
			// PrevLSN is the writer's: the log stores it as handed in.
			r := Record{Type: TypeUpdate, Txn: txns[seq%len(txns)], PrevLSN: LSN(seq / 2), Page: 3, Slot: uint16(seq),
				Version: uint64(seq), Before: []byte{byte(seq)}, After: bytes.Repeat([]byte{byte(seq)}, seq%40)}
			if r.Txn == 0 {
				r = Record{Type: TypeCheckpoint}
			}
			if got, want := l.Append(r), f.append(r); got != want {
				t.Fatalf("append %d: LSN %d, oracle %d", seq, got, want)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		if l.Len() != len(f.recs) || l.FirstLSN() != f.first || l.NextLSN() != f.first+LSN(len(f.recs)) {
			t.Fatalf("%s: Len/First/Next = %d/%d/%d, oracle %d/%d/%d", step,
				l.Len(), l.FirstLSN(), l.NextLSN(), len(f.recs), f.first, f.first+LSN(len(f.recs)))
		}
		if got, want := l.ForcedLSN(), f.first+LSN(f.forced)-1; got != want {
			t.Fatalf("%s: ForcedLSN = %d, oracle %d", step, got, want)
		}
		if got := l.Records(1); !reflect.DeepEqual(got, append([]Record(nil), f.recs...)) && !(len(got) == 0 && len(f.recs) == 0) {
			t.Fatalf("%s: Records(1) differs from the oracle (%d vs %d records)", step, len(got), len(f.recs))
		}
		end := f.first + LSN(len(f.recs))
		for _, from := range []LSN{0, f.first, f.first + 1, f.first + blockLen - 1, f.first + blockLen, f.first + blockLen + 1, end - 1, end, end + 5} {
			var want []Record
			if from < end {
				lo := from
				if lo < f.first {
					lo = f.first
				}
				want = f.recs[lo-f.first:]
			}
			var scanned []Record
			l.Scan(from, func(r Record) bool { scanned = append(scanned, r); return true })
			if len(scanned) != len(want) || (len(want) > 0 && !reflect.DeepEqual(scanned, want)) {
				t.Fatalf("%s: Scan(%d) yields %d records, oracle %d", step, from, len(scanned), len(want))
			}
			if got := l.Records(from); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: Records(%d) yields %d records, oracle %d", step, from, len(got), len(want))
			}
			got, ok := l.Get(from)
			if inRange := from >= f.first && from < end; ok != inRange || (ok && !reflect.DeepEqual(got, f.recs[from-f.first])) {
				t.Fatalf("%s: Get(%d) = %+v, %v", step, from, got, ok)
			}
		}
		// An early stop mid-block and at a block edge.
		for _, stopAfter := range []int{1, blockLen, blockLen + 1} {
			n := 0
			l.Scan(1, func(Record) bool { n++; return n < stopAfter })
			if want := min(stopAfter, len(f.recs)); n != want {
				t.Fatalf("%s: Scan stopped after %d records, want %d", step, n, want)
			}
		}
		if !bytes.Equal(dev.Contents(), f.dev) {
			t.Fatalf("%s: device holds %d bytes, oracle %d (or they differ)", step, dev.Size(), len(f.dev))
		}
		redo := 0
		for i := range f.recs {
			if isRedo(&f.recs[i]) {
				redo++
			}
		}
		if l.RedoLen() != redo {
			t.Fatalf("%s: RedoLen = %d, oracle %d", step, l.RedoLen(), redo)
		}
		recs := stableAll(l)
		if len(recs) != f.forced {
			t.Fatalf("%s: StableRecords = %d records; oracle %d", step, len(recs), f.forced)
		}
		if len(recs) > 0 && recs[len(recs)-1].LSN != f.first+LSN(f.forced)-1 {
			t.Fatalf("%s: last stable record has LSN %d, oracle %d", step, recs[len(recs)-1].LSN, f.first+LSN(f.forced)-1)
		}
	}
	forceBoth := func(step string, upto LSN) {
		t.Helper()
		n, ok := l.Force(upto)
		wn, wok := f.force(upto)
		if n != wn || ok != wok {
			t.Fatalf("%s: Force(%d) = %d, %v; oracle %d, %v", step, upto, n, ok, wn, wok)
		}
		check(step)
	}

	check("empty")
	appendN(blockLen + 200)
	check("append across the first block edge")
	forceBoth("force spanning two blocks", blockLen+90)
	appendN(blockLen)
	check("append across the second block edge")

	// A torn force whose records span a block edge, the crash that follows
	// (a volatile tail spanning blocks), and the reopen that trims the tear.
	whole, torn := l.ForceTorn(2*blockLen+50, 0.6)
	wwhole, wtorn := f.forceTorn(2*blockLen+50, 0.6)
	if whole != wwhole || torn != wtorn || torn == 0 {
		t.Fatalf("ForceTorn = %d whole, %d torn; oracle %d, %d (torn must be > 0)", whole, torn, wwhole, wtorn)
	}
	if l.ForcedLSN() <= blockLen+90 || l.ForcedLSN() >= 2*blockLen+50 {
		t.Fatalf("torn force left ForcedLSN at %d, want strictly inside the forced range", l.ForcedLSN())
	}
	check("torn force spanning a block edge")
	if got, want := l.Crash(), f.crash(); got != want || got < blockLen/2 {
		t.Fatalf("Crash lost %d records, oracle %d", got, want)
	}
	check("crash with a volatile tail spanning blocks")
	l.Reopen()
	f.reopen()
	check("reopen after the torn force")
	appendN(blockLen + 10)
	forceBoth("force after reopen", 1<<40)

	// Discard mid-block, then up to exactly a block edge, appending after
	// each.
	if got, want := l.DiscardThrough(300), f.discardThrough(300); got != want || got != 300 {
		t.Fatalf("DiscardThrough(300) dropped %d, oracle %d", got, want)
	}
	check("discard mid-block")
	appendN(blockLen / 2)
	check("append after a mid-block discard")
	if got, want := l.DiscardThrough(blockLen), f.discardThrough(blockLen); got != want || got != blockLen-300 {
		t.Fatalf("DiscardThrough(%d) dropped %d, oracle %d", blockLen, got, want)
	}
	if l.off != 0 {
		t.Fatalf("discard to a block edge left off = %d", l.off)
	}
	check("discard at a block edge")
	appendN(blockLen + 1)
	forceBoth("force after discards", 1<<40)
	if got, want := l.DiscardThrough(1<<40), f.discardThrough(1<<40); got != want {
		t.Fatalf("discarding everything dropped %d, oracle %d", got, want)
	}
	check("discard everything")
	appendN(3)
	check("append into an emptied log")

	// A log reopened over the device sees what the oracle's device holds.
	forceBoth("final force", 1<<40)
	l2, err := NewLog(2, dev)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != f.forced {
		t.Fatalf("NewLog over the device holds %d records, oracle %d stable", l2.Len(), f.forced)
	}
}
