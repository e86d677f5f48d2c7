package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"smdb/internal/storage"
)

// The stable-prefix reader (walkStable, behind StableRecords, NewLog and
// Reopen) against the copying decoder it replaced on those paths:
// DecodeAll/Unmarshal are the oracle throughout.

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

// checkPrefix compares the reader with the oracle on one device image, both
// ways of calling it: decoding (at LSN base 0, DecodeAll's) and validating
// only.
func checkPrefix(t *testing.T, name string, buf []byte) {
	t.Helper()
	want, wantTorn := DecodeAll(buf)
	var got []Record
	n, size := walkStable(buf, 0, &got)
	if n != len(want) || len(buf)-size != wantTorn {
		t.Fatalf("%s: walkStable = %d records, %d torn bytes; DecodeAll %d, %d", name, n, len(buf)-size, len(want), wantTorn)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: walkStable's records differ from DecodeAll's\n got %+v\nwant %+v", name, got, want)
	}
	if vn, vsize := walkStable(buf, 0, nil); vn != n || vsize != size {
		t.Fatalf("%s: validating walk = %d records, %d bytes; decoding walk %d, %d", name, vn, vsize, n, size)
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
	// Corruption at every byte (length fields, checksums, fixed bodies,
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
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	if _, _, err := Unmarshal(frame); err == nil {
		t.Fatal("the malformed frame decodes; the case tests nothing")
	}
	checkPrefix(t, "malformed body", append(bytes.Clone(whole), frame...))
	checkPrefix(t, "malformed body, records behind it", append(append(bytes.Clone(whole), frame...), whole...))
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
		got, want := l.StableRecords(), oracleStable(l)
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

// Records whose bytes straddle the device's 64 KiB chunk edges come back
// whole: 2000 records of 60 to 860 bytes cross them at odd offsets.
func TestStableRecordsAcrossDeviceChunks(t *testing.T) {
	l := stableLog(t, 2000, 400, 11)
	if size := l.Device().Size(); size < 5*(64<<10) {
		t.Fatalf("device holds %d bytes; the test needs several 64 KiB chunks", size)
	}
	got := l.StableRecords()
	if !reflect.DeepEqual(got, oracleStable(l)) {
		t.Fatal("StableRecords differs from the oracle across chunk edges")
	}
	if !sameRecords(got, l.Records(1)) {
		t.Fatal("StableRecords differs from the retained log across chunk edges")
	}
}

// The aliasing rule: a view's images are slices of its own copy of the device
// bytes, so nothing later done to the device or the log shows through them.
func TestStableRecordsSurviveDeviceWrites(t *testing.T) {
	l := stableLog(t, 300, 64, 9)
	view := l.StableRecords()
	frozen := oracleStable(l) // deep copies, taken at the same instant
	check := func(step string) {
		t.Helper()
		if !reflect.DeepEqual(view, frozen) {
			t.Fatalf("after %s: the view's records changed", step)
		}
	}
	for i := 0; i < 200; i++ {
		l.Append(stableRecord(1000+i, 64))
	}
	l.ForceAll()
	check("Append + Force")
	l.DiscardThrough(250) // rewrites the device from offset 0
	check("DiscardThrough")
	l.Device().Truncate(bytes.Repeat([]byte{0xee}, 1<<16))
	check("Truncate over the same chunks")
	l.Crash()
	l.Reopen()
	check("Crash + Reopen")
}

// Reading a stable prefix costs a fixed number of allocations — the private
// copy of the device bytes and the record slice, sized once — however many
// records it holds; the walk itself costs none, validating or decoding into a
// slice with room.
func TestStablePrefixAllocatesO1(t *testing.T) {
	l := stableLog(t, 10_000, 32, 16)
	var n int
	if a := testing.AllocsPerRun(5, func() { n = len(l.StableRecords()) }); a > 4 {
		t.Errorf("StableRecords over %d records allocates %.0f times, want a handful", n, a)
	}
	if n != 10_000 {
		t.Fatalf("StableRecords returned %d records, want 10000", n)
	}
	buf := l.Device().Contents()
	if a := testing.AllocsPerRun(5, func() { n, _ = walkStable(buf, 0, nil) }); a != 0 || n != 10_000 {
		t.Errorf("validating walk: %d records, %.0f allocations; want 10000, 0", n, a)
	}
	recs := make([]Record, 0, 10_000)
	if a := testing.AllocsPerRun(5, func() { recs = recs[:0]; n, _ = walkStable(buf, 0, &recs) }); a != 0 || n != 10_000 {
		t.Errorf("decoding walk: %d records, %.0f allocations; want 10000, 0", n, a)
	}
}

func BenchmarkStablePrefix(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l := stableLog(b, n, 32, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(l.StableRecords()) != n {
					b.Fatal("short read")
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
