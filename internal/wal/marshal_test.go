package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/storage"
)

// oracleMarshal is the two-buffer encoder the log was first written with,
// kept verbatim as the reference for the in-place one: the encoding is what
// sits on the stable device, so it must not move by a byte.
func oracleMarshal(r *Record) []byte {
	body := make([]byte, 0, 64+len(r.Before)+len(r.After))
	body = append(body, byte(r.Type), r.Mode)
	body = binary.LittleEndian.AppendUint64(body, uint64(r.Txn))
	body = binary.LittleEndian.AppendUint64(body, uint64(r.PrevLSN))
	body = binary.LittleEndian.AppendUint32(body, uint32(r.Page))
	body = binary.LittleEndian.AppendUint16(body, r.Slot)
	body = binary.LittleEndian.AppendUint64(body, r.Version)
	body = binary.LittleEndian.AppendUint64(body, r.Lock)
	body = binary.LittleEndian.AppendUint64(body, r.NTA)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(r.Before)))
	body = append(body, r.Before...)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(r.After)))
	body = append(body, r.After...)

	out := make([]byte, recHeaderLen, recHeaderLen+len(body))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// randomImage draws an undo/redo image: empty, tiny, typical, or the largest
// the 16-bit length field can carry.
func randomImage(rng *rand.Rand) []byte {
	var n int
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		n = 1
	case 2:
		n = 1<<16 - 1
	default:
		n = 1 + rng.Intn(200)
	}
	img := make([]byte, n)
	rng.Read(img)
	return img
}

func randomRecord(rng *rand.Rand) Record {
	return Record{
		Type: RecordType(1 + rng.Intn(9)), Mode: uint8(rng.Intn(3)),
		Txn: TxnID(rng.Uint64()), PrevLSN: LSN(rng.Uint64()),
		Page: storage.PageID(rng.Int31()), Slot: uint16(rng.Intn(1 << 16)),
		Version: rng.Uint64(), Lock: rng.Uint64(), NTA: rng.Uint64(),
		Before: randomImage(rng), After: randomImage(rng),
	}
}

// TestAppendMarshalMatchesOracle: for random records, empty and maximal
// images included, AppendMarshal produces the oracle's bytes — onto nil, onto
// a non-empty buffer with room to spare, and onto one it must grow — leaves
// what was already in the buffer alone, sizes as EncodedSize predicts, and
// round-trips through Unmarshal.
func TestAppendMarshalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		r := randomRecord(rng)
		want := oracleMarshal(&r)
		if got := AppendMarshal(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("record %d: AppendMarshal(nil) differs from the oracle", i)
		}
		if got := Marshal(&r); !bytes.Equal(got, want) {
			t.Fatalf("record %d: Marshal differs from the oracle", i)
		}
		if EncodedSize(&r) != len(want) {
			t.Fatalf("record %d: EncodedSize = %d, encoding is %d bytes", i, EncodedSize(&r), len(want))
		}
		prefix := make([]byte, 1+rng.Intn(100))
		rng.Read(prefix)
		for _, spare := range []int{0, len(want) / 2, 2 * len(want)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got := AppendMarshal(dst, &r)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("record %d: AppendMarshal onto %d bytes (+%d spare) is not prefix+oracle", i, len(prefix), spare)
			}
		}
		back, n, err := Unmarshal(want)
		if err != nil || n != len(want) || !reflect.DeepEqual(back, r) {
			t.Fatalf("record %d: Unmarshal = %+v, %d, %v; want the record back", i, back, n, err)
		}
	}
}

// filledLog returns a log over a fresh device holding n random records (small
// images), the first forced of them stable, and the records as stored.
func filledLog(t *testing.T, seed int64, n, forced int) (*Log, *storage.LogDevice, []Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dev := storage.NewLogDevice()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := randomRecord(rng)
		r.Txn = MakeTxnID(0, uint64(1+rng.Intn(3)))
		r.Before, r.After = r.Before[:min(len(r.Before), 40)], r.After[:min(len(r.After), 40)]
		l.Append(r)
	}
	if forced > 0 {
		l.Force(LSN(forced))
	}
	return l, dev, l.Records(1)
}

// TestForceTornDeviceContents: what a torn force leaves on the device, and
// what it reports, are those of the original implementation — every whole
// record that fits in the fraction, then a prefix of the next — whatever an
// earlier force left in the log's encode buffer.
func TestForceTornDeviceContents(t *testing.T) {
	const n, forced = 12, 3
	for _, frac := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.77, 0.999, 1, 2} {
		l, dev, recs := filledLog(t, 42, n, forced)
		stable := dev.Contents()

		// The original algorithm, on the oracle's encodings.
		var bufs [][]byte
		total := 0
		for i := forced; i < n; i++ {
			b := oracleMarshal(&recs[i])
			bufs = append(bufs, b)
			total += len(b)
		}
		limit := int(frac * float64(total))
		if limit >= total {
			limit = total - 1
		}
		if limit < 0 {
			limit = 0
		}
		wantWhole, wantTorn := 0, 0
		want := stable
		for _, b := range bufs {
			if len(want)-len(stable)+len(b) <= limit {
				want = append(want, b...)
				wantWhole++
				continue
			}
			wantTorn = limit - (len(want) - len(stable))
			want = append(want, b[:wantTorn]...)
			break
		}

		whole, torn := l.ForceTorn(LSN(n), frac)
		if whole != wantWhole || torn != wantTorn {
			t.Errorf("frac %v: ForceTorn = %d whole, %d torn; want %d, %d", frac, whole, torn, wantWhole, wantTorn)
		}
		if got := dev.Contents(); !bytes.Equal(got, want) {
			t.Errorf("frac %v: device holds %d bytes, want %d (or differs in content)", frac, len(got), len(want))
		}
		if got := l.ForcedLSN(); got != LSN(forced+wantWhole) {
			t.Errorf("frac %v: ForcedLSN = %d, want %d", frac, got, forced+wantWhole)
		}
	}
}

// TestDiscardThroughDeviceContents: after reclaiming a prefix, the device
// holds exactly the oracle's encoding of the retained stable records.
func TestDiscardThroughDeviceContents(t *testing.T) {
	const n, forced, drop = 12, 9, 4
	l, dev, recs := filledLog(t, 43, n, forced)
	if got := l.DiscardThrough(LSN(drop)); got != drop {
		t.Fatalf("DiscardThrough = %d, want %d", got, drop)
	}
	var want []byte
	for i := drop; i < forced; i++ {
		want = append(want, oracleMarshal(&recs[i])...)
	}
	if got := dev.Contents(); !bytes.Equal(got, want) {
		t.Errorf("device holds %d bytes, want the %d of records %d..%d", len(got), len(want), drop+1, forced)
	}
	// The encode buffer DiscardThrough used is reused by the next force.
	l.ForceAll()
	for i := forced; i < n; i++ {
		want = append(want, oracleMarshal(&recs[i])...)
	}
	if got := dev.Contents(); !bytes.Equal(got, want) {
		t.Errorf("after the next force the device holds %d bytes, want %d", len(got), len(want))
	}
}

// TestAppendForceSteadyStateDoesNotAllocate holds a commit-sized batch —
// sixteen appends and the force that makes them stable — to zero heap
// allocations once the log's encode buffer has room: nothing on that path may
// allocate per record or per force.
func TestAppendForceSteadyStateDoesNotAllocate(t *testing.T) {
	const runs, batch = 200, 16
	dev := storage.NewLogDevice()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	r := benchRecord()
	fill := func() {
		for i := 0; i < batch; i++ {
			l.Append(r)
		}
		if n, forced := l.ForceAll(); n != batch || !forced {
			t.Fatalf("ForceAll = %d, %v; want %d records in one force", n, forced, batch)
		}
	}
	// Grow the encode buffer once, then empty the log and the device. The
	// log's record blocks and the device's chunks are allocated as the tail
	// reaches them — one per several hundred records, which AllocsPerRun's
	// whole-number average reads as zero per batch.
	for i := 0; i < runs+2; i++ {
		fill()
	}
	l.DiscardThrough(l.ForcedLSN())
	dev.Truncate(nil)
	if n := testing.AllocsPerRun(runs, fill); n != 0 {
		t.Errorf("Append x%d + Force allocates %.1f/op", batch, n)
	}
}

// TestAppendForceWithNothingAttachedDoesNoHookWork: with no observer
// attached, an append, a force, a crash and a discard are one pointer test
// each — the node clock is never read (and so no record is sized for an
// event). Detaching counts as nothing attached; attaching an observer that
// feeds the debt tracker turns the clock reads on.
func TestAppendForceWithNothingAttachedDoesNoHookWork(t *testing.T) {
	var reads int
	l, err := NewClockedLog(0, storage.NewLogDevice(), func() int64 { reads++; return 7 })
	if err != nil {
		t.Fatal(err)
	}
	exercise := func() {
		r := benchRecord()
		for i := 0; i < 4; i++ {
			l.Append(r)
		}
		l.ForceAll()
		l.Append(r)
		l.Crash()
		l.Reopen()
		l.DiscardThrough(2)
	}
	exercise()
	l.SetHooks(nil)
	exercise()
	if reads != 0 {
		t.Errorf("node clock read %d times with nothing the log feeds attached", reads)
	}
	d := debt.New(debt.Config{Nodes: 1})
	o := obs.New()
	o.SetSink(d)
	l.SetHooks(o)
	exercise()
	if want := 4 + 1 + 1; reads != want { // appends + force + the lost append
		t.Errorf("node clock read %d times with a debt tracker attached, want %d", reads, want)
	}
	if d.Snapshot().Appends == 0 {
		t.Error("attached debt tracker saw no append")
	}
	l.SetHooks(nil)
	reads = 0
	exercise()
	if reads != 0 {
		t.Errorf("node clock read %d times after detaching", reads)
	}
}
