package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"smdb/internal/obs"
	"smdb/internal/obs/debt"
	"smdb/internal/storage"
)

// oracleMarshal writes a frame out field by field into two buffers, apart
// from AppendMarshal's table-driven encoder, as the reference for it: the
// body is the type byte, the presence mask (bit i for the i-th of Mode, Txn,
// PrevLSN, Page, Slot, Version, Lock, NTA, Before, After), then each
// non-zero field little-endian at its width and each non-empty image behind
// its 16-bit length; the header is the body's length and its CRC32-C,
// computed here from a table of its own.
func oracleMarshal(r *Record) []byte {
	le := binary.LittleEndian
	var mask uint16
	body := []byte{byte(r.Type), 0, 0}
	if r.Mode != 0 {
		mask |= 1 << 0
		body = append(body, r.Mode)
	}
	if r.Txn != 0 {
		mask |= 1 << 1
		body = le.AppendUint64(body, uint64(r.Txn))
	}
	if r.PrevLSN != 0 {
		mask |= 1 << 2
		body = le.AppendUint64(body, uint64(r.PrevLSN))
	}
	if r.Page != 0 {
		mask |= 1 << 3
		body = le.AppendUint32(body, uint32(r.Page))
	}
	if r.Slot != 0 {
		mask |= 1 << 4
		body = le.AppendUint16(body, r.Slot)
	}
	if r.Version != 0 {
		mask |= 1 << 5
		body = le.AppendUint64(body, r.Version)
	}
	if r.Lock != 0 {
		mask |= 1 << 6
		body = le.AppendUint64(body, r.Lock)
	}
	if r.NTA != 0 {
		mask |= 1 << 7
		body = le.AppendUint64(body, r.NTA)
	}
	if len(r.Before) > 0 {
		mask |= 1 << 8
		body = le.AppendUint16(body, uint16(len(r.Before)))
		body = append(body, r.Before...)
	}
	if len(r.After) > 0 {
		mask |= 1 << 9
		body = le.AppendUint16(body, uint16(len(r.After)))
		body = append(body, r.After...)
	}
	le.PutUint16(body[1:], mask)

	out := make([]byte, recHeaderLen, recHeaderLen+len(body))
	le.PutUint32(out[0:], uint32(len(body)))
	le.PutUint32(out[4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
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
		n = MaxImage
	default:
		n = 1 + rng.Intn(200)
	}
	img := make([]byte, n)
	rng.Read(img)
	return img
}

// randomRecord draws a record whose every field is zero a third of the time,
// so the draws cover the presence mask's combinations.
func randomRecord(rng *rand.Rand) Record {
	u := func(v uint64) uint64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return v
	}
	return Record{
		Type: RecordType(1 + rng.Intn(9)), Mode: uint8(u(uint64(1 + rng.Intn(2)))),
		Txn: TxnID(u(rng.Uint64())), PrevLSN: LSN(u(rng.Uint64())),
		Page: storage.PageID(u(uint64(rng.Int31()))), Slot: uint16(u(uint64(rng.Intn(1 << 16)))),
		Version: u(rng.Uint64()), Lock: u(rng.Uint64()), NTA: u(rng.Uint64()),
		Before: randomImage(rng), After: randomImage(rng),
	}
}

// TestAppendMarshalMatchesOracle: for random records, zero fields and empty
// and maximal images included, AppendMarshal produces the oracle's bytes —
// onto nil, onto a non-empty buffer with room to spare, and onto one it must
// grow — leaves what was already in the buffer alone, sizes as EncodedSize
// predicts, and round-trips through Unmarshal.
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

// TestFrameSizes pins what the engine's records cost on the device: a lock
// record carries its transaction, name and mode (28 bytes), a plain commit
// its transaction alone (19), and an update at most 45 bytes besides its
// images, less each of PrevLSN, Page and Slot that is zero.
func TestFrameSizes(t *testing.T) {
	txn := MakeTxnID(3, 42)
	img := func(n int) []byte { return bytes.Repeat([]byte{7}, n) }
	for _, c := range []struct {
		name string
		r    Record
		want int
	}{
		{"lock acquire", Record{Type: TypeLockAcquire, Txn: txn, Lock: 0x9e3779b97f4a7c15, Mode: 2}, 28},
		{"lock release", Record{Type: TypeLockRelease, Txn: txn, Lock: 1, Mode: 1}, 28},
		{"commit", Record{Type: TypeCommit, Txn: txn}, 19},
		{"abort", Record{Type: TypeAbort, Txn: txn}, 19},
		{"checkpoint", Record{Type: TypeCheckpoint}, 11},
		{"update", Record{Type: TypeUpdate, Txn: txn, PrevLSN: 9, Page: 7, Slot: 11, Version: 12345, Before: img(32), After: img(40)}, 45 + 32 + 40},
		{"first update", Record{Type: TypeUpdate, Txn: txn, Page: 7, Slot: 11, Version: 1, Before: img(32), After: img(32)}, 37 + 64},
		{"update of page 0", Record{Type: TypeUpdate, Txn: txn, PrevLSN: 9, Slot: 11, Version: 1, Before: img(1), After: img(1)}, 41 + 2},
		{"update of slot 0", Record{Type: TypeUpdate, Txn: txn, PrevLSN: 9, Page: 7, Version: 1, Before: img(1), After: img(1)}, 43 + 2},
		{"insert (no before image)", Record{Type: TypeUpdate, Txn: txn, PrevLSN: 9, Page: 7, Slot: 11, Version: 1, After: img(8)}, 43 + 8},
	} {
		if got := len(Marshal(&c.r)); got != c.want {
			t.Errorf("%s: frame of %d bytes, want %d", c.name, got, c.want)
		}
		if got := EncodedSize(&c.r); got != c.want {
			t.Errorf("%s: EncodedSize = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestOversizedImagePanics: an image longer than a frame's 16-bit length can
// say is refused where it enters, by Append and by AppendMarshal, instead of
// being written with a wrapped length that reads back as a torn tail.
func TestOversizedImagePanics(t *testing.T) {
	l, err := NewLog(0, storage.NewLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if got := recover(); got != errImageTooLong {
				t.Errorf("%s: panic %v, want %v", name, got, errImageTooLong)
			}
		}()
		f()
	}
	big := make([]byte, MaxImage+1)
	for _, r := range []Record{
		{Type: TypeUpdate, Txn: 1, Before: big},
		{Type: TypeCLR, Txn: 1, After: big},
	} {
		mustPanic("Append", func() { l.Append(r) })
		mustPanic("AppendMarshal", func() { AppendMarshal(nil, &r) })
	}
	if l.Len() != 0 {
		t.Errorf("the refused records left %d records in the log", l.Len())
	}
	// The largest image the frame carries goes through whole.
	r := Record{Type: TypeUpdate, Txn: 1, Before: big[:MaxImage], After: big[:MaxImage]}
	l.Append(r)
	l.ForceAll()
	recs, torn := DecodeAll(l.Device().Contents())
	if len(recs) != 1 || torn != 0 || len(recs[0].Before) != MaxImage || len(recs[0].After) != MaxImage {
		t.Errorf("a record with two %d-byte images decodes to %d records, %d torn bytes", MaxImage, len(recs), torn)
	}
}

type namedBody struct {
	name string
	body []byte
}

// malformedBodies returns bodies parseBody must refuse, by what is wrong
// with each: a missing mask, an unknown mask bit, a field cut short, an image
// that runs past the body, a byte after the last field.
func malformedBodies() []namedBody {
	commit := Marshal(&Record{Type: TypeCommit, Txn: 9})[recHeaderLen:]
	update := Marshal(&Record{Type: TypeUpdate, Txn: 9, Page: 2, Before: []byte{1}, After: []byte{2, 3}})[recHeaderLen:]
	return []namedBody{
		{"empty", nil},
		{"no mask", []byte{byte(TypeCommit), 2}},
		{"unknown mask bit", []byte{byte(TypeCommit), 0, 1 << 2}},
		{"field cut short", commit[:len(commit)-1]},
		{"byte after the last field", append(bytes.Clone(commit), 0)},
		{"image length cut short", append(bytes.Clone(update[:len(update)-4]), 2)},
		{"image past the body", update[:len(update)-1]},
		{"byte after the last image", append(bytes.Clone(update), 0)},
	}
}

// TestParseBodyRejectsMalformed: a malformed body is refused by parseBody
// and reported as ErrCorrupt by Unmarshal, so the torn-tail rule ends the
// log's valid prefix there; the well-formed bodies they were cut from parse.
func TestParseBodyRejectsMalformed(t *testing.T) {
	for _, c := range malformedBodies() {
		var r Record
		if parseBody(c.body, &r) {
			t.Errorf("%s: body %x parses", c.name, c.body)
		}
		if _, _, err := Unmarshal(frameOf(c.body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %v, want ErrCorrupt", c.name, err)
		}
	}
	for _, r := range []Record{
		{Type: TypeCommit, Txn: 9},
		{Type: TypeUpdate, Txn: 9, Page: 2, Before: []byte{1}, After: []byte{2, 3}},
		{Type: TypeCheckpoint},
	} {
		var back Record
		if body := Marshal(&r)[recHeaderLen:]; !parseBody(body, &back) {
			t.Errorf("well-formed body %x refused", body)
		}
	}
}

// frameOf wraps body in a frame with a valid header: its length and CRC32-C.
func frameOf(body []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, body...)
}

// FuzzParseBody feeds parseBody arbitrary bodies behind a valid header. It
// must never panic; a body it accepts decodes to a record whose own frame is
// no longer and decodes to the same record (a marked field may be zero, and
// is then left out); and on a device holding a good record, the frame and
// another good record, the copying reader (DecodeAll) and the in-place one
// (StableRecords) stop at the same record.
func FuzzParseBody(f *testing.F) {
	for i := 0; i < 8; i++ {
		r := stableRecord(i, 5)
		f.Add(Marshal(&r)[recHeaderLen:])
	}
	for _, c := range malformedBodies() {
		f.Add(c.body)
	}
	f.Add([]byte{byte(TypeCommit), 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // a marked field that is zero
	f.Add([]byte{byte(TypeUpdate), 0, 1, 0, 0})                   // a marked image that is empty
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Record
		ok := parseBody(body, &r)
		if ok {
			enc := Marshal(&r)
			back, n, err := Unmarshal(enc)
			if err != nil || n != EncodedSize(&r) || n > recHeaderLen+len(body) || !sameRecords([]Record{back}, []Record{r}) {
				t.Fatalf("body %x decodes to %+v, whose %d-byte frame decodes to %+v, %v", body, r, len(enc), back, err)
			}
		}
		first, last := Record{Type: TypeCheckpoint}, Record{Type: TypeCommit, Txn: 5}
		buf := append(append(Marshal(&first), frameOf(body)...), Marshal(&last)...)
		want, _ := DecodeAll(buf)
		if wantN := map[bool]int{false: 1, true: 3}[ok]; len(want) != wantN {
			t.Fatalf("body %x: parseBody says %v, DecodeAll reads %d records", body, ok, len(want))
		}

		dev := storage.NewLogDevice()
		l, err := NewLog(0, dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Append(buf); err != nil {
			t.Fatal(err)
		}
		got := l.StableRecords(0, keepAll)
		if len(got) != len(want) {
			t.Fatalf("body %x: StableRecords reads %d records, DecodeAll %d", body, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], want[i]) {
				t.Fatalf("body %x: record %d is %+v in place, %+v decoded", body, i, *got[i], want[i])
			}
		}
	})
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
	d := debt.New(debt.Config{})
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
