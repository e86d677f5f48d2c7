package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"smdb/internal/storage"
)

// The stable-prefix reader (stableWalk, behind StableRecords, NewLog and
// Reopen) reads a device's chunks in place; the copying decoder it replaced
// on those paths, DecodeAll over Contents(), is the oracle throughout.

// stableRecord returns a record whose shape varies with i: every type that
// carries images, plus bare commit and lock records, with images of 0..img
// bytes.
func stableRecord(i, img int) Record {
	r := Record{Txn: MakeTxnID(1, uint64(i/4+1)), PrevLSN: LSN(i), Version: uint64(i + 1)}
	switch i % 4 {
	case 0:
		r.Type, r.Page, r.Slot = TypeUpdate, storage.PageID(i%7), uint16(i%13)
		r.Before = bytes.Repeat([]byte{byte(i)}, i%(img+1))
		r.After = bytes.Repeat([]byte{byte(i + 1)}, img)
	case 1:
		r.Type, r.Lock, r.Mode = TypeLockAcquire, uint64(i)*31, 2
	case 2:
		r.Type, r.Page, r.NTA = TypeCLR, storage.PageID(i%7), uint64(i)
		r.After = bytes.Repeat([]byte{byte(i)}, img/2)
	case 3:
		r.Type = TypeCommit
	}
	return r
}

func encodeRecords(n, img int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		r := stableRecord(i, img)
		buf = AppendMarshal(buf, &r)
	}
	return buf
}

// walkAll runs the reader over chunks to its end, at LSN base 0 (DecodeAll's).
func walkAll(chunks [][]byte) (recs []Record, size int64) {
	w := newStableWalk(chunks, 0)
	var r Record
	for w.next(&r) {
		recs = append(recs, r)
	}
	if w.n != len(recs) {
		panic("walk miscounts its records")
	}
	return recs, w.size
}

// splitEvery cuts buf into chunks of k bytes (the last shorter).
func splitEvery(buf []byte, k int) [][]byte {
	var chunks [][]byte
	for len(buf) > k {
		chunks = append(chunks, buf[:k])
		buf = buf[k:]
	}
	return append(chunks, buf)
}

// checkPrefix compares the reader with the oracle on one device image, read
// as one chunk and as chunks that split its frames everywhere: a header, a
// body, an image cut at a chunk edge.
func checkPrefix(t *testing.T, name string, buf []byte) {
	t.Helper()
	want, wantTorn := DecodeAll(buf)
	layouts := map[string][][]byte{"one chunk": {buf}}
	for _, k := range []int{1, 5, 7, 64} {
		layouts[fmt.Sprintf("%d-byte chunks", k)] = splitEvery(buf, k)
	}
	if len(buf) > 3 {
		m := len(buf)/2 + 1
		layouts["split near the middle, empty chunks around"] = [][]byte{nil, buf[:m], nil, buf[m:], nil}
	}
	for layout, chunks := range layouts {
		got, size := walkAll(chunks)
		if len(got) != len(want) || int64(len(buf))-size != int64(wantTorn) {
			t.Fatalf("%s, %s: walk = %d records, %d torn bytes; DecodeAll %d, %d", name, layout, len(got), int64(len(buf))-size, len(want), wantTorn)
		}
		if len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s: the walk's records differ from DecodeAll's\n got %+v\nwant %+v", name, layout, got, want)
		}
	}
}

func TestStablePrefixMatchesDecodeAll(t *testing.T) {
	checkPrefix(t, "empty device", nil)
	whole := encodeRecords(9, 24)
	checkPrefix(t, "whole records", whole)

	// A tail torn at every byte: every cut of the image, inside a record's
	// header, body or images, or on a record boundary.
	for cut := 0; cut < len(whole); cut++ {
		checkPrefix(t, fmt.Sprintf("torn at byte %d", cut), whole[:cut])
	}
	// Corruption at every byte (length fields, checksums, masks, fields,
	// image lengths, images): the prefix ends at the record holding it.
	for off := range whole {
		c := bytes.Clone(whole)
		c[off] ^= 0x41
		checkPrefix(t, fmt.Sprintf("corrupt at byte %d", off), c)
	}

	// A frame whose checksum holds but whose body is malformed (the after
	// image's length runs past the body) ends the prefix too.
	body := Marshal(&Record{Type: TypeUpdate, After: []byte{1, 2, 3}})[recHeaderLen:]
	body = body[:len(body)-2]
	frame := frameOf(body)
	if checksum(frame[recHeaderLen:]) != binary.LittleEndian.Uint32(frame[4:]) {
		t.Fatal("the malformed frame's checksum does not hold; the case tests the checksum, not the body")
	}
	if _, _, err := Unmarshal(frame); err == nil {
		t.Fatal("the malformed frame decodes; the case tests nothing")
	}
	checkPrefix(t, "malformed body", append(bytes.Clone(whole), frame...))
	checkPrefix(t, "malformed body, records behind it", append(append(bytes.Clone(whole), frame...), whole...))

	// A header declaring a body longer than the device ends the prefix
	// without reading (or allocating) past the end.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	huge = append(huge, 0, 0, 0, 0, 1, 2, 3)
	checkPrefix(t, "oversized length", append(bytes.Clone(whole), huge...))
}

// Reopen and NewLog cut the device where the oracle says the valid prefix
// ends, byte for byte, and count the same torn bytes.
func TestRepairTailTruncatesWhereDecodeAllStops(t *testing.T) {
	whole := encodeRecords(6, 16)
	tail := Marshal(&Record{Type: TypeUpdate, Before: []byte{1, 2}, After: []byte{3, 4, 5}})
	for cut := 0; cut <= len(tail); cut++ {
		contents := append(bytes.Clone(whole), tail[:cut]...)
		want, wantTorn := DecodeAll(contents)
		keep := contents[:len(contents)-wantTorn]

		dev := storage.NewLogDevice()
		dev.Truncate(contents)
		l, err := NewLog(0, dev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dev.Contents(), keep) || l.TornBytes() != wantTorn || l.Len() != len(want) {
			t.Fatalf("cut %d: NewLog left %d bytes, %d torn, %d records; oracle %d, %d, %d",
				cut, dev.Size(), l.TornBytes(), l.Len(), len(keep), wantTorn, len(want))
		}
		if got := l.Records(1); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: NewLog's records differ from DecodeAll's", cut)
		}

		// The same bytes arriving behind an open log's back (a torn force).
		dev = storage.NewLogDevice()
		dev.Truncate(whole)
		if l, err = NewLog(0, dev); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Append(tail[:cut]); err != nil {
			t.Fatal(err)
		}
		l.Crash()
		l.Reopen()
		if !bytes.Equal(dev.Contents(), keep) {
			t.Fatalf("cut %d: Reopen left %d bytes, oracle %d", cut, dev.Size(), len(keep))
		}
	}
}

// stableLog builds a log of n records with img-byte images, all forced, in
// forces of batch records.
func stableLog(tb testing.TB, n, img, batch int) *Log {
	tb.Helper()
	l, err := NewLog(2, storage.NewLogDevice())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lsn := l.Append(stableRecord(i, img))
		if (i+1)%batch == 0 || i == n-1 {
			l.Force(lsn)
		}
	}
	return l
}

// keepAll is a StableRecords filter that keeps every record.
func keepAll(*Record) bool { return true }

// stableAll is StableRecords keeping every record, as values.
func stableAll(l *Log) []Record {
	ps := l.StableRecords(l.Len(), keepAll)
	out := make([]Record, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

// oracleStable is StableRecords as it was: DecodeAll over the device, LSNs
// re-based.
func oracleStable(l *Log) []Record {
	recs, _ := DecodeAll(l.Device().Contents())
	for i := range recs {
		recs[i].LSN += l.FirstLSN() - 1
	}
	return recs
}

// sameRecords compares field by field, taking a nil image and an empty one
// (what Append was handed) as the same.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !bytes.Equal(x.Before, y.Before) || !bytes.Equal(x.After, y.After) {
			return false
		}
		x.Before, x.After, y.Before, y.After = nil, nil, nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func TestStableRecordsRebasedAfterDiscard(t *testing.T) {
	l := stableLog(t, 40, 12, 7)
	for _, upto := range []LSN{0, 1, 13, 39} {
		l.DiscardThrough(upto)
		got, want := stableAll(l), oracleStable(l)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after DiscardThrough(%d): StableRecords differs from the oracle", upto)
		}
		if !sameRecords(got, l.Records(1)) {
			t.Fatalf("after DiscardThrough(%d): StableRecords differs from the retained log", upto)
		}
		if got[0].LSN != l.FirstLSN() || got[len(got)-1].LSN != l.ForcedLSN() {
			t.Fatalf("after DiscardThrough(%d): LSNs %d..%d, want %d..%d", upto, got[0].LSN, got[len(got)-1].LSN, l.FirstLSN(), l.ForcedLSN())
		}
	}
}

// chunkEdges returns the device's chunk lengths, read in place.
func chunkEdges(dev *storage.LogDevice) []int {
	var lens []int
	dev.Walk(func(chunks [][]byte) {
		for _, c := range chunks {
			lens = append(lens, len(c))
		}
	})
	return lens
}

// frameEdges returns the byte offsets at which the records of a valid device
// image end.
func frameEdges(recs []Record) map[int]bool {
	edges, off := map[int]bool{0: true}, 0
	for i := range recs {
		off += EncodedSize(&recs[i])
		edges[off] = true
	}
	return edges
}

// Forced records come back whole across the device's chunks: 2 000 records
// of 35 to 845 bytes fill several 64 KiB chunks, and one force of more than
// 64 KiB takes a chunk of its own. A force is never split, so every chunk
// edge is a record edge and the walk never joins a frame.
func TestStableRecordsAcrossDeviceChunks(t *testing.T) {
	l := stableLog(t, 2000, 400, 11)
	for i := 0; i < 400; i++ {
		l.Append(stableRecord(2000+i, 400))
	}
	l.ForceAll()
	if size := l.Device().Size(); size < 5*(64<<10) {
		t.Fatalf("device holds %d bytes; the test needs several 64 KiB chunks", size)
	}
	got := stableAll(l)
	want := oracleStable(l)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("StableRecords differs from the oracle across chunk edges")
	}
	if !sameRecords(got, l.Records(1)) {
		t.Fatal("StableRecords differs from the retained log across chunk edges")
	}
	edges, off, big := frameEdges(want), 0, false
	for _, n := range chunkEdges(l.Device()) {
		off += n
		if !edges[off] {
			t.Fatalf("a chunk ends at byte %d, inside a record: a force was split", off)
		}
		big = big || n > 64<<10
	}
	if !big {
		t.Fatal("no chunk holds more than 64 KiB; the large force was split or never made")
	}
}

// Raw device appends may split a frame across chunks, anywhere; the walk
// joins it and still reads exactly what DecodeAll reads of Contents(), with
// the torn or checksum-corrupt tail it stops at. Pieces of 1 byte to 100 KiB
// put the chunk edges everywhere, and the larger ones take chunks of their
// own.
func TestStableRecordsOfRawDeviceAppends(t *testing.T) {
	stream := encodeRecords(3000, 150)
	tail := Marshal(&Record{Type: TypeUpdate, Txn: 7, Before: bytes.Repeat([]byte{9}, 300), After: bytes.Repeat([]byte{8}, 300)})
	corrupt := bytes.Clone(tail)
	corrupt[len(corrupt)-1] ^= 1
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"no tail", nil},
		{"torn tail", tail[:len(tail)-5]},
		{"torn header", tail[:3]},
		{"checksum-corrupt tail", corrupt},
		{"checksum-corrupt tail, records behind it", append(bytes.Clone(corrupt), stream[:500]...)},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s, seed %d", tc.name, seed)
			dev := storage.NewLogDevice()
			l, err := NewLog(4, dev)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for rest := append(bytes.Clone(stream), tc.tail...); len(rest) > 0; {
				k := 1 + rng.Intn(100<<10)
				if rng.Intn(3) == 0 {
					k = 1 + rng.Intn(200)
				}
				k = min(k, len(rest))
				if _, err := dev.Append(rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			want, wantTorn := DecodeAll(dev.Contents())
			split := false
			edges, off := frameEdges(want), 0
			for _, n := range chunkEdges(dev) {
				off += n
				split = split || (!edges[off] && off < int(dev.Size())-wantTorn)
			}
			if !split {
				t.Fatalf("%s: no frame straddles a chunk edge; the case tests nothing", name)
			}
			var updates int
			got := l.StableRecords(0, func(r *Record) bool {
				if r.Type == TypeUpdate {
					updates++
				}
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("%s: StableRecords = %d records, DecodeAll %d", name, len(got), len(want))
			}
			for i, r := range got {
				if !reflect.DeepEqual(*r, want[i]) {
					t.Fatalf("%s: record %d differs from DecodeAll's\n got %+v\nwant %+v", name, i, *r, want[i])
				}
			}
			if kept := l.StableRecords(3, func(r *Record) bool { return r.Type == TypeUpdate }); len(kept) != updates {
				t.Fatalf("%s: StableRecords kept %d updates past a hint of 3, want %d", name, len(kept), updates)
			}
			// Reopen cuts the tail where DecodeAll stops; an append after it
			// goes behind the cut.
			l.Crash()
			l.Reopen()
			if dev.Size() != int64(len(stream)) {
				t.Fatalf("%s: Reopen left %d bytes, want %d", name, dev.Size(), len(stream))
			}
			if _, err := dev.Append(tail); err != nil {
				t.Fatal(err)
			}
			after, torn := DecodeAll(dev.Contents())
			if torn != 0 || len(after) != len(want)+1 || len(stableAll(l)) != len(after) {
				t.Fatalf("%s: after Reopen and an append: %d records (%d torn bytes), StableRecords %d; want %d, 0",
					name, len(after), torn, len(stableAll(l)), len(want)+1)
			}
		}
	}
}

// The aliasing rule: a view's images are slices of the device's bytes, which
// are never written again, so nothing later done to the device or the log
// shows through them — a torn force cut by Reopen and followed by appends,
// the one path that shortens a chunk, included.
func TestStableRecordsSurviveDeviceWrites(t *testing.T) {
	l := stableLog(t, 300, 64, 9)
	type view struct {
		recs   []*Record
		frozen []Record // deep copies, taken at the same instant
	}
	var views []view
	take := func() {
		views = append(views, view{l.StableRecords(0, keepAll), oracleStable(l)})
	}
	check := func(step string) {
		t.Helper()
		for k, v := range views {
			if len(v.recs) != len(v.frozen) {
				t.Fatalf("after %s: view %d has %d records, want %d", step, k, len(v.recs), len(v.frozen))
			}
			for i, r := range v.recs {
				if !reflect.DeepEqual(*r, v.frozen[i]) {
					t.Fatalf("after %s: view %d's record %d changed", step, k, i)
				}
			}
		}
	}
	take()
	for i := 0; i < 200; i++ {
		l.Append(stableRecord(1000+i, 64))
	}
	l.ForceAll()
	check("Append + Force")
	take()
	for i := 0; i < 50; i++ {
		l.Append(stableRecord(2000+i, 64))
	}
	if whole, torn := l.ForceTorn(l.NextLSN()-1, 0.5); whole == 0 || torn == 0 {
		t.Fatalf("ForceTorn landed %d whole records and %d torn bytes; the step needs both", whole, torn)
	}
	take()
	l.Crash()
	l.Reopen()
	for i := 0; i < 50; i++ {
		l.Append(stableRecord(3000+i, 64))
	}
	l.ForceAll()
	check("ForceTorn + Reopen + Append + Force")
	if got, want := stableAll(l), oracleStable(l); !reflect.DeepEqual(got, want) {
		t.Fatal("after the torn force's repair, StableRecords differs from the oracle")
	}
	l.DiscardThrough(250) // rewrites the device from offset 0
	check("DiscardThrough")
	l.Device().Truncate(bytes.Repeat([]byte{0xee}, 1<<16))
	check("Truncate over the same chunks")
	l.Crash()
	l.Reopen()
	check("Crash + Reopen")
}

// Reading a stable prefix allocates nothing proportional to the device: the
// walk reads it in place, Reopen's repair allocates nothing, and
// StableRecords allocates its slab and its list, sized by the hint, once —
// nothing else, however many records the device holds.
func TestStablePrefixAllocatesO1(t *testing.T) {
	const n = 10_000
	l := stableLog(t, n, 32, 16)
	devBytes := l.Device().Size()
	isUpdate := func(r *Record) bool { return r.Type == TypeUpdate }
	for _, tc := range []struct {
		name      string
		hint      int
		keep      func(*Record) bool
		kept      int
		maxAllocs float64
		maxBytes  int64 // per call
	}{
		{"keep none", 0, func(*Record) bool { return false }, 0, 2, 512},
		{"keep the updates", n / 4, isUpdate, n / 4, 2, n / 4 * 140},
		{"keep every record", n, keepAll, n, 2, n * 140},
	} {
		var got int
		// The fewest of three runs: a collection that a large slab sets off
		// can allocate a few bytes of its own inside one.
		call := func() { got = len(l.StableRecords(tc.hint, tc.keep)) }
		a := testing.AllocsPerRun(5, call)
		for i := 0; i < 2; i++ {
			a = min(a, testing.AllocsPerRun(5, call))
		}
		if a > tc.maxAllocs || got != tc.kept {
			t.Errorf("%s: StableRecords kept %d records in %.0f allocations; want %d in at most %.0f", tc.name, got, a, tc.kept, tc.maxAllocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const calls = 20
		for i := 0; i < calls; i++ {
			l.StableRecords(tc.hint, tc.keep)
		}
		runtime.ReadMemStats(&after)
		if b := int64(after.TotalAlloc-before.TotalAlloc) / calls; b > tc.maxBytes {
			t.Errorf("%s: StableRecords over a %d-byte device allocates %d B per call, want at most %d", tc.name, devBytes, b, tc.maxBytes)
		}
	}
	if a := testing.AllocsPerRun(5, func() { l.Crash(); l.Reopen() }); a != 0 {
		t.Errorf("Crash + Reopen over %d records allocates %.0f times, want 0", n, a)
	}
	l.Device().Walk(func(chunks [][]byte) {
		var r Record
		read := 0
		if a := testing.AllocsPerRun(5, func() {
			w := newStableWalk(chunks, 0)
			for w.next(&r) {
			}
			read = w.n
		}); a != 0 || read != n {
			t.Errorf("the walk read %d records in %.0f allocations, want %d in 0", read, a, n)
		}
	})
}

func BenchmarkStablePrefix(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l := stableLog(b, n, 32, 16)
			keep := func(r *Record) bool { return r.Type == TypeUpdate || r.Type == TypeCLR }
			hint := l.RedoLen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(l.StableRecords(hint, keep)) != hint {
					b.Fatal("short read")
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
