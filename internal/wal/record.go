// Package wal implements write-ahead logging for the shared-memory database:
// per-node logs with a volatile in-cache tail and a stable (disk or NVRAM)
// prefix, the log-record vocabulary needed by the paper's recovery protocols
// (physical undo/redo images, commit/abort, compensation records, the
// logical lock-acquisition records of section 4.2.2 — including read locks —
// and nested-top-level-action brackets for early-committed structural
// changes), and a compact binary encoding with per-record checksums.
//
// Each node maintains its own log (paper section 2). All appends go to the
// node's volatile tail; a node crash destroys exactly the unforced suffix.
// Because the paper assumes each node's log lines store no other sharable
// information, a log never migrates: survivors keep their entire logs, and a
// crashed node keeps only the stable prefix.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"smdb/internal/machine"
	"smdb/internal/storage"
)

// LSN is a per-node log sequence number. LSN 1 is the first record in a
// node's log; 0 means "none".
type LSN uint64

// TxnID identifies a transaction. The owning node is encoded in the top 16
// bits, so the node is recoverable from any log record or lock entry — the
// property section 4.2.2 relies on ("if the transaction ID also encodes the
// node ID, this information is already available").
type TxnID uint64

// MakeTxnID builds a TxnID for a transaction with per-node sequence seq
// running on node n.
func MakeTxnID(n machine.NodeID, seq uint64) TxnID {
	return TxnID(uint64(n)<<48 | seq&(1<<48-1))
}

// Node returns the node on which the transaction runs.
func (t TxnID) Node() machine.NodeID { return machine.NodeID(uint64(t) >> 48) }

// Seq returns the per-node sequence number of the transaction.
func (t TxnID) Seq() uint64 { return uint64(t) & (1<<48 - 1) }

// String formats a TxnID as node.seq.
func (t TxnID) String() string { return fmt.Sprintf("t%d.%d", t.Node(), t.Seq()) }

// RecordType enumerates log record kinds.
type RecordType uint8

const (
	// TypeUpdate is an in-place record update carrying both the before
	// image (undo) and after image (redo).
	TypeUpdate RecordType = iota + 1
	// TypeCommit marks transaction commit; it must be stable before the
	// commit is acknowledged.
	TypeCommit
	// TypeAbort marks a completed transaction abort.
	TypeAbort
	// TypeCLR is a compensation record written while undoing an update
	// (the restored before image is its redo).
	TypeCLR
	// TypeLockAcquire is the logical record written before acquiring a
	// lock (section 4.2.2). Under IFA both read and write locks are
	// logged so a survivor can re-establish lock state destroyed with a
	// crashed node's cache.
	TypeLockAcquire
	// TypeLockRelease is the logical record written before releasing a
	// lock.
	TypeLockRelease
	// TypeNTABegin opens a nested top-level action for a structural
	// change (B-tree split, space allocation).
	TypeNTABegin
	// TypeNTAEnd commits a nested top-level action; under IFA the NTA's
	// records are forced at this point (early commit of structural
	// changes).
	TypeNTAEnd
	// TypeCheckpoint marks a node checkpoint; redo scans start at the
	// last checkpoint.
	TypeCheckpoint
)

var typeNames = map[RecordType]string{
	TypeUpdate:      "update",
	TypeCommit:      "commit",
	TypeAbort:       "abort",
	TypeCLR:         "clr",
	TypeLockAcquire: "lock-acquire",
	TypeLockRelease: "lock-release",
	TypeNTABegin:    "nta-begin",
	TypeNTAEnd:      "nta-end",
	TypeCheckpoint:  "checkpoint",
}

func (t RecordType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// Record is one log record. Only the fields relevant to a record's Type are
// meaningful; the rest stay zero and take no room in the record's frame,
// whose body carries a field only if it is non-zero (an image only if it is
// non-empty) and says which in a presence mask (see AppendMarshal).
type Record struct {
	Type RecordType
	// LSN is assigned by Log.Append and recomputed on decode (records are
	// dense: the i-th record of a node's log has LSN i+1).
	LSN LSN
	// Txn is the transaction (or, for NTA records, the enclosing
	// transaction) that wrote the record.
	Txn TxnID
	// PrevLSN is, on an update record, the LSN of the transaction's previous
	// undoable update (0 for its first), set by the writer: the undo chain.
	PrevLSN LSN
	// Page and Slot locate the updated record for physical records
	// (update, CLR).
	Page storage.PageID
	Slot uint16
	// Version is the global update version used for idempotent redo: an
	// update is applied if and only if its Version exceeds the page
	// record's current version.
	Version uint64
	// Before and After are the undo and redo images, at most MaxImage bytes
	// each.
	Before, After []byte
	// Lock and Mode describe a logical lock record.
	Lock uint64
	Mode uint8
	// NTA identifies a nested top-level action.
	NTA uint64
}

// MaxImage is the largest before or after image a record can carry: a
// frame stores an image's length in 16 bits. Log.Append and AppendMarshal
// panic on a longer one rather than write a frame that would read back as a
// torn tail.
const MaxImage = 1<<16 - 1

// Errors from decoding.
var (
	ErrCorrupt = errors.New("wal: corrupt log record")
)

const recHeaderLen = 4 + 4 // total length + CRC32-C of the body

var le = binary.LittleEndian

// The presence mask of a record body: a field's bit is set iff the field is
// non-zero (an image's iff it is non-empty), and the body carries the fields
// whose bits are set, in this order.
const (
	hasMode uint16 = 1 << iota
	hasTxn
	hasPrevLSN
	hasPage
	hasSlot
	hasVersion
	hasLock
	hasNTA
	hasBefore
	hasAfter
	knownFields = hasAfter<<1 - 1
)

// bodyHeaderLen is the type byte and the presence mask.
const bodyHeaderLen = 1 + 2

// fixedLen[m] is the encoded length of the fixed fields — Mode 1, Txn 8,
// PrevLSN 8, Page 4, Slot 2, Version 8, Lock 8, NTA 8 bytes — that a mask's
// low byte m marks. An image is a 16-bit length and its bytes.
var fixedLen = func() (t [256]uint8) {
	widths := [8]uint8{1, 8, 8, 4, 2, 8, 8, 8}
	for m := range t {
		for i, w := range widths {
			if m&(1<<i) != 0 {
				t[m] += w
			}
		}
	}
	return t
}()

// bodyLen returns the length of r's body without encoding r: EncodedSize's
// rule. AppendMarshal builds the same mask as it writes the fields, which
// costs about a fifth less per record of a private commit than working the
// mask out first; the marshal tests and smdb-waldump's byte accounting hold
// the two together.
func bodyLen(r *Record) int {
	var fixed uint16
	if r.Mode != 0 {
		fixed |= hasMode
	}
	if r.Txn != 0 {
		fixed |= hasTxn
	}
	if r.PrevLSN != 0 {
		fixed |= hasPrevLSN
	}
	if r.Page != 0 {
		fixed |= hasPage
	}
	if r.Slot != 0 {
		fixed |= hasSlot
	}
	if r.Version != 0 {
		fixed |= hasVersion
	}
	if r.Lock != 0 {
		fixed |= hasLock
	}
	if r.NTA != 0 {
		fixed |= hasNTA
	}
	n := bodyHeaderLen + int(fixedLen[fixed])
	if len(r.Before) > 0 {
		n += 2 + len(r.Before)
	}
	if len(r.After) > 0 {
		n += 2 + len(r.After)
	}
	return n
}

// errImageTooLong is what Append and AppendMarshal panic with on an image
// longer than MaxImage.
var errImageTooLong = errors.New("wal: record image longer than MaxImage, which a frame cannot carry")

// checkImages panics if an image of r is too long for a frame to carry.
func checkImages(r *Record) {
	if len(r.Before) > MaxImage || len(r.After) > MaxImage {
		panic(errImageTooLong)
	}
}

// castagnoli is the frame checksum's table: CRC32-C, which the hardware
// computes a word at a time; recovery verifies every frame of a crashed
// node's stable log.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the frame checksum of a record body.
func checksum(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// Marshal encodes r (excluding its LSN, which is positional).
func Marshal(r *Record) []byte { return AppendMarshal(nil, r) }

// AppendMarshal appends r's frame — byte for byte what Marshal returns — to
// dst and returns the extended slice. A frame is a header, the body's length
// and CRC32-C (4 bytes each, little-endian), then the body: the type byte,
// the 16-bit presence mask, and the fields the mask marks, little-endian at
// their widths (see fixedLen). The body is encoded in place behind the
// header, which is back-patched, so encoding into a buffer with room to
// spare allocates and copies nothing extra. It panics if an image is longer
// than MaxImage.
func AppendMarshal(dst []byte, r *Record) []byte {
	checkImages(r)
	// Room for the longest frame r could have: every field present.
	dst = slices.Grow(dst, recHeaderLen+bodyHeaderLen+int(fixedLen[0xff])+2+len(r.Before)+2+len(r.After))
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderLen+bodyHeaderLen)...)
	var mask uint16
	if r.Mode != 0 {
		mask |= hasMode
		dst = append(dst, r.Mode)
	}
	if r.Txn != 0 {
		mask |= hasTxn
		dst = le.AppendUint64(dst, uint64(r.Txn))
	}
	if r.PrevLSN != 0 {
		mask |= hasPrevLSN
		dst = le.AppendUint64(dst, uint64(r.PrevLSN))
	}
	if r.Page != 0 {
		mask |= hasPage
		dst = le.AppendUint32(dst, uint32(r.Page))
	}
	if r.Slot != 0 {
		mask |= hasSlot
		dst = le.AppendUint16(dst, r.Slot)
	}
	if r.Version != 0 {
		mask |= hasVersion
		dst = le.AppendUint64(dst, r.Version)
	}
	if r.Lock != 0 {
		mask |= hasLock
		dst = le.AppendUint64(dst, r.Lock)
	}
	if r.NTA != 0 {
		mask |= hasNTA
		dst = le.AppendUint64(dst, r.NTA)
	}
	if len(r.Before) > 0 {
		mask |= hasBefore
		dst = le.AppendUint16(dst, uint16(len(r.Before)))
		dst = append(dst, r.Before...)
	}
	if len(r.After) > 0 {
		mask |= hasAfter
		dst = le.AppendUint16(dst, uint16(len(r.After)))
		dst = append(dst, r.After...)
	}
	body := dst[start+recHeaderLen:]
	body[0] = byte(r.Type)
	le.PutUint16(body[1:], mask)
	le.PutUint32(dst[start:], uint32(len(body)))
	le.PutUint32(dst[start+4:], checksum(body))
	return dst
}

// Unmarshal decodes one record from the front of buf, returning the record
// and the number of bytes consumed. The record's images are copies.
func Unmarshal(buf []byte) (Record, int, error) {
	if len(buf) < recHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:]))
	sum := binary.LittleEndian.Uint32(buf[4:])
	if len(buf) < recHeaderLen+n {
		return Record{}, 0, fmt.Errorf("%w: truncated body (want %d, have %d)", ErrCorrupt, n, len(buf)-recHeaderLen)
	}
	body := buf[recHeaderLen : recHeaderLen+n]
	if checksum(body) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var r Record
	if !parseBody(body, &r) {
		return Record{}, 0, fmt.Errorf("%w: malformed body (%d bytes)", ErrCorrupt, n)
	}
	r.Before = bytes.Clone(r.Before)
	r.After = bytes.Clone(r.After)
	return r, recHeaderLen + n, nil
}

// DecodeAll decodes a concatenation of records (e.g. a stable log device's
// contents), assigning dense LSNs starting at 1. A log device's tail can be
// torn: a crash mid-force leaves a partial (or checksum-corrupt) final
// record. Decoding therefore stops at the last checksum-valid record and
// reports the number of trailing bytes it discarded, instead of failing the
// whole log open — the paper's force discipline guarantees nothing past the
// last valid record was ever relied upon.
func DecodeAll(buf []byte) (recs []Record, tornBytes int) {
	for len(buf) > 0 {
		r, n, err := Unmarshal(buf)
		if err != nil {
			return recs, len(buf)
		}
		r.LSN = LSN(len(recs) + 1)
		recs = append(recs, r)
		buf = buf[n:]
	}
	return recs, 0
}

// parseBody decodes a checksum-verified record body into r, its images
// aliasing body, and reports whether the body is well formed: no unknown bit
// in its mask, every field the mask marks whole, and nothing after the last
// (r is to be ignored if not). It is the one parser of a body: Unmarshal
// copies the images out of what it decodes, and stableWalk keeps them
// aliased.
func parseBody(body []byte, r *Record) bool {
	if len(body) < bodyHeaderLen {
		return false
	}
	mask := le.Uint16(body[1:])
	p := bodyHeaderLen + int(fixedLen[mask&0xff])
	if mask&^knownFields != 0 || len(body) < p {
		return false
	}
	*r = Record{Type: RecordType(body[0])}
	f := body[bodyHeaderLen:p]
	if mask&hasMode != 0 {
		r.Mode, f = f[0], f[1:]
	}
	if mask&hasTxn != 0 {
		r.Txn, f = TxnID(le.Uint64(f)), f[8:]
	}
	if mask&hasPrevLSN != 0 {
		r.PrevLSN, f = LSN(le.Uint64(f)), f[8:]
	}
	if mask&hasPage != 0 {
		r.Page, f = storage.PageID(le.Uint32(f)), f[4:]
	}
	if mask&hasSlot != 0 {
		r.Slot, f = le.Uint16(f), f[2:]
	}
	if mask&hasVersion != 0 {
		r.Version, f = le.Uint64(f), f[8:]
	}
	if mask&hasLock != 0 {
		r.Lock, f = le.Uint64(f), f[8:]
	}
	if mask&hasNTA != 0 {
		r.NTA = le.Uint64(f)
	}
	rest, ok := body[p:], true
	if mask&hasBefore != 0 {
		r.Before, rest, ok = image(rest)
	}
	if ok && mask&hasAfter != 0 {
		r.After, rest, ok = image(rest)
	}
	return ok && len(rest) == 0
}

// image reads a 16-bit length and that many image bytes off the front of p.
func image(p []byte) (img, rest []byte, ok bool) {
	if len(p) < 2 {
		return nil, nil, false
	}
	n := 2 + int(le.Uint16(p))
	if len(p) < n {
		return nil, nil, false
	}
	return p[2:n:n], p[n:], true
}

// stableWalk is the one reader of a log device's contents, given as the
// device's chunks back to back (storage.LogDevice.Walk). Each next checks one
// frame — a whole header, a whole body, a matching CRC32-C, a well-formed body
// — and decodes it; the walk stops where DecodeAll stops, at the first torn,
// checksum-corrupt or malformed record. It reads the chunks in place: a
// record's images alias them, and nothing is allocated, except for a frame
// split across chunks, which only raw device appends make (a force appends
// in one piece and a device never splits an append). That frame is joined in
// a buffer of its own.
type stableWalk struct {
	chunks [][]byte
	base   LSN   // LSN of the record before the first
	ci     int   // chunk holding the next frame
	off    int   // the next frame's offset in chunks[ci]
	left   int64 // bytes from the next frame to the end of the chunks
	// n and size are the record count and byte length of the valid prefix
	// read so far.
	n    int
	size int64
}

func newStableWalk(chunks [][]byte, base LSN) stableWalk {
	w := stableWalk{chunks: chunks, base: base}
	for _, c := range chunks {
		w.left += int64(len(c))
	}
	return w
}

// next decodes the next record of the valid prefix into r, with LSN base+n,
// and reports whether there was one.
func (w *stableWalk) next(r *Record) bool {
	if w.left < recHeaderLen {
		return false
	}
	for w.off == len(w.chunks[w.ci]) {
		w.ci, w.off = w.ci+1, 0
	}
	frame := w.chunks[w.ci][w.off:]
	hdr := frame
	if len(hdr) < recHeaderLen {
		hdr = w.join(recHeaderLen)
	}
	k := recHeaderLen + int64(binary.LittleEndian.Uint32(hdr))
	if k > w.left {
		return false
	}
	if int64(len(frame)) < k {
		frame = w.join(int(k))
	}
	frame = frame[:k:k]
	body := frame[recHeaderLen:]
	if checksum(body) != binary.LittleEndian.Uint32(frame[4:]) || !parseBody(body, r) {
		return false
	}
	w.n++
	r.LSN = w.base + LSN(w.n)
	w.size += k
	w.left -= k
	for k > 0 {
		in := int64(len(w.chunks[w.ci]) - w.off)
		if k < in {
			w.off += int(k)
			break
		}
		k -= in
		w.ci, w.off = w.ci+1, 0
	}
	return true
}

// join copies the k bytes at the walk's position, which run past their
// chunk, into a new buffer. k is at most w.left.
func (w *stableWalk) join(k int) []byte {
	buf := make([]byte, 0, k)
	for ci, off := w.ci, w.off; len(buf) < k; ci, off = ci+1, 0 {
		c := w.chunks[ci][off:]
		buf = append(buf, c[:min(len(c), k-len(buf))]...)
	}
	return buf
}
