// Package heap lays database records out on the cache lines of the shared
// memory machine. Pages consist of a header line followed by data lines;
// each data line holds several fixed-size record slots (the paper's premise:
// with 128-byte lines, multiple records share a line unless space is
// wasted). Every slot carries, in the same cache line as the record data:
//
//   - an undo tag — the node ID of the transaction with an uncommitted
//     update to the record (the Tagging Rule of section 4.1.2); NoNode when
//     the record is not active, and
//   - a version — the global update version of the record's last update,
//     used for idempotent redo decisions during restart recovery.
//
// Because tag and version share the record's line, they migrate, survive,
// and are destroyed exactly with the data they describe, which is what makes
// Selective Redo's cache scan sound.
//
// This package provides layout arithmetic and raw slot access only: a
// lock-free read by node, and writes as steps of the caller's open line
// section (machine.Section) — a slot is written only under its line's lock.
// Locking, logging, and the LBM policies are composed above it (internal/
// recovery, internal/txn).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"smdb/internal/machine"
	"smdb/internal/storage"
)

// Slot metadata layout within a record slot.
const (
	tagBytes     = 1 // undo tag: node ID + 1; 0 means "no active transaction"
	flagBytes    = 1
	versionBytes = 6 // 48-bit update version
	slotOverhead = tagBytes + flagBytes + versionBytes
)

// Slot flags.
const (
	// FlagOccupied marks a slot that holds a record.
	FlagOccupied = 1 << 0
	// FlagDeleted marks a logically deleted record (section 4.2.1: deletes
	// are performed by marking, so the undo of an uncommitted delete is a
	// simple unmark and the freed space is not reused before commit).
	FlagDeleted = 1 << 1
)

// Layout describes how records map onto lines and pages.
type Layout struct {
	// LineSize is the machine's coherency unit.
	LineSize int
	// LinesPerPage includes the header line.
	LinesPerPage int
	// RecsPerLine is the number of record slots per data line — the
	// paper's key sharing parameter (1 means one object per line).
	RecsPerLine int
}

// NewLayout validates and returns a layout. RecordSize is derived:
// LineSize/RecsPerLine minus the per-slot metadata.
func NewLayout(lineSize, linesPerPage, recsPerLine int) (Layout, error) {
	l := Layout{LineSize: lineSize, LinesPerPage: linesPerPage, RecsPerLine: recsPerLine}
	if linesPerPage < 2 {
		return l, fmt.Errorf("heap: LinesPerPage must be >= 2 (header + data), got %d", linesPerPage)
	}
	if recsPerLine < 1 {
		return l, fmt.Errorf("heap: RecsPerLine must be >= 1, got %d", recsPerLine)
	}
	if l.RecordSize() < 1 {
		return l, fmt.Errorf("heap: %d-byte lines cannot hold %d slots (record size would be %d)",
			lineSize, recsPerLine, l.RecordSize())
	}
	return l, nil
}

// SlotBytes is the total bytes per slot including metadata.
func (l Layout) SlotBytes() int { return l.LineSize / l.RecsPerLine }

// RecordSize is the usable record payload per slot.
func (l Layout) RecordSize() int { return l.SlotBytes() - slotOverhead }

// SlotsPerPage is the number of record slots on one page.
func (l Layout) SlotsPerPage() int { return (l.LinesPerPage - 1) * l.RecsPerLine }

// PageBytes is the page size in bytes (the unit of disk I/O).
func (l Layout) PageBytes() int { return l.LinesPerPage * l.LineSize }

// RID identifies a record: a page and a slot on it.
type RID struct {
	Page storage.PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("r%d.%d", r.Page, r.Slot) }

// Errors.
var (
	ErrBadSlot = errors.New("heap: slot out of range")
)

// Store provides raw slot access to pages resident in shared memory. Frames
// are direct-mapped: page p occupies LinesPerPage lines starting at
// base + p*LinesPerPage. Fetching pages from disk is the buffer manager's
// job; Store assumes the lines it touches are resident and surfaces
// machine.ErrLineLost otherwise.
type Store struct {
	M      *machine.Machine
	Layout Layout
	Base   machine.LineID
	NPages int
}

// NewStore allocates frames for npages pages on m and returns the store.
func NewStore(m *machine.Machine, layout Layout, npages int) *Store {
	if layout.LineSize != m.LineSize() {
		panic(fmt.Sprintf("heap: layout line size %d != machine line size %d", layout.LineSize, m.LineSize()))
	}
	base := m.Alloc(npages * layout.LinesPerPage)
	return &Store{M: m, Layout: layout, Base: base, NPages: npages}
}

// PageBase returns the first line of page p's frame.
func (s *Store) PageBase(p storage.PageID) machine.LineID {
	return s.Base + machine.LineID(int(p)*s.Layout.LinesPerPage)
}

// HeaderLine returns the line holding page p's header (by the section 6
// convention, the first line of the page, which carries the Page-LSN).
func (s *Store) HeaderLine(p storage.PageID) machine.LineID { return s.PageBase(p) }

// LineOf returns the line holding rid's slot and the slot's byte offset in
// that line.
func (s *Store) LineOf(rid RID) (machine.LineID, int, error) {
	if err := s.check(rid); err != nil {
		return 0, 0, err
	}
	dataLine := 1 + int(rid.Slot)/s.Layout.RecsPerLine
	off := (int(rid.Slot) % s.Layout.RecsPerLine) * s.Layout.SlotBytes()
	return s.PageBase(rid.Page) + machine.LineID(dataLine), off, nil
}

// SlotIndex numbers rid's slot densely across the store,
// page*SlotsPerPage+slot, so that the slots of one line are consecutive: an
// index into a per-slot table.
func (s *Store) SlotIndex(rid RID) (int, error) {
	if err := s.check(rid); err != nil {
		return 0, err
	}
	return int(rid.Page)*s.Layout.SlotsPerPage() + int(rid.Slot), nil
}

// check reports ErrBadSlot unless rid's page and slot are in the store.
func (s *Store) check(rid RID) error {
	if int(rid.Page) < 0 || int(rid.Page) >= s.NPages || int(rid.Slot) >= s.Layout.SlotsPerPage() {
		return fmt.Errorf("%w: %v", ErrBadSlot, rid)
	}
	return nil
}

// SlotData is the decoded contents of one record slot.
type SlotData struct {
	// Tag is the undo tag: the node running the transaction with an
	// uncommitted update to this record, or machine.NoNode.
	Tag machine.NodeID
	// Flags holds FlagOccupied / FlagDeleted.
	Flags byte
	// Version is the global update version of the last applied update.
	Version uint64
	// Data is the record payload.
	Data []byte
}

// Deleted reports whether the slot is logically deleted.
func (sd SlotData) Deleted() bool { return sd.Flags&FlagDeleted != 0 }

// Occupied reports whether the slot holds a record.
func (sd SlotData) Occupied() bool { return sd.Flags&FlagOccupied != 0 }

// ReadSlot reads rid's slot on behalf of node nd without a line lock. The
// read goes through the coherency protocol (and so may replicate the line
// into nd's cache). The result's Data aliases buf.
func (s *Store) ReadSlot(nd machine.NodeID, rid RID, buf *SlotBuf) (SlotData, error) {
	line, off, err := s.LineOf(rid)
	if err != nil {
		return SlotData{}, err
	}
	raw := buf.slot(s.Layout)
	if err := s.M.ReadInto(nd, line, off, raw); err != nil {
		return SlotData{}, err
	}
	return decodeSlot(raw, s.Layout.RecordSize()), nil
}

// decodeSlot parses a raw slot image.
func decodeSlot(raw []byte, recordSize int) SlotData {
	var sd SlotData
	sd.Tag = machine.NodeID(int(raw[0]) - 1)
	sd.Flags = raw[1]
	sd.Version = versionFrom(raw[2 : 2+versionBytes])
	sd.Data = raw[slotOverhead : slotOverhead+recordSize]
	return sd
}

// EncodeSlot overwrites raw, one slot long, with sd's image; the payload is
// zero-padded/truncated to the record size.
func EncodeSlot(raw []byte, sd SlotData) {
	raw[0] = byte(int(sd.Tag) + 1)
	raw[1] = sd.Flags
	putVersion(raw[2:2+versionBytes], sd.Version)
	clear(raw[slotOverhead+copy(raw[slotOverhead:], sd.Data):])
}

// SlotBuf is room for one raw slot image that can live on the caller's
// stack: slot I/O goes through one instead of a fresh slice per access.
// Slots wider than it (lines over 128 bytes holding one or two records) fall
// back to an allocation. ReadLineIn reads a whole line through one, with the
// same fallback for lines over 128 bytes.
type SlotBuf [128]byte

// slot returns a buffer one slot long: buf itself when the slot fits.
func (buf *SlotBuf) slot(layout Layout) []byte { return buf.bytes(layout.SlotBytes()) }

// bytes returns a buffer n bytes long: buf itself when n fits.
func (buf *SlotBuf) bytes(n int) []byte {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]byte, n)
}

// The *In methods are steps of the caller's open line section on rid's line
// (see machine.Section): the getline ... releaseline bracket of the update
// path, transaction undo, restart redo and tag repair. Each is one simulated
// read or write under the section's stripe hold.

// slotIn returns the byte offset of rid's slot in the line sec is on.
func (s *Store) slotIn(sec *machine.Section, rid RID) (int, error) {
	line, off, err := s.LineOf(rid)
	if err == nil && !sec.On(line) {
		err = fmt.Errorf("%w: %v is not on the section's line", ErrBadSlot, rid)
	}
	return off, err
}

// ReadSlotIn reads rid's slot through buf: the result's Data aliases it.
func (s *Store) ReadSlotIn(sec *machine.Section, rid RID, buf *SlotBuf) (SlotData, error) {
	off, err := s.slotIn(sec, rid)
	if err != nil {
		return SlotData{}, err
	}
	raw := buf.slot(s.Layout)
	if err := sec.Read(off, raw); err != nil {
		return SlotData{}, err
	}
	return decodeSlot(raw, s.Layout.RecordSize()), nil
}

// ReadLineIn reads the whole line sec is on, every slot of it, through buf
// (wide enough for a line of up to 128 bytes): the result aliases it. Decode
// a slot of it with DecodeSlotFromLine.
func (s *Store) ReadLineIn(sec *machine.Section, buf *SlotBuf) ([]byte, error) {
	raw := buf.bytes(s.Layout.LineSize)
	if err := sec.Read(0, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// WriteSlotIn overwrites rid's entire slot with sd (payload zero-padded or
// truncated to the record size), encoded through buf; sd.Data must not alias it.
func (s *Store) WriteSlotIn(sec *machine.Section, rid RID, sd SlotData, buf *SlotBuf) error {
	off, err := s.slotIn(sec, rid)
	if err != nil {
		return err
	}
	raw := buf.slot(s.Layout)
	EncodeSlot(raw, sd)
	return sec.Write(off, raw)
}

// WriteTagIn updates only rid's undo tag.
func (s *Store) WriteTagIn(sec *machine.Section, rid RID, tag machine.NodeID) error {
	off, err := s.slotIn(sec, rid)
	if err != nil {
		return err
	}
	return sec.Write(off, []byte{byte(int(tag) + 1)})
}

// Page header layout: pageID(4) | version(8) — the Page-LSN field of
// section 6, maintained under a line lock on the header line to enforce the
// ordered update logging rule.
const (
	hdrPageID  = 0
	hdrVersion = 4
)

// SetPageVersionIn writes page p's header version (the Page-LSN analogue) as
// a step of sec, an open section on page p's header line.
func (s *Store) SetPageVersionIn(sec *machine.Section, p storage.PageID, v uint64) error {
	if !sec.On(s.HeaderLine(p)) {
		return fmt.Errorf("heap: section is not on page %d's header line", p)
	}
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], v)
	return sec.Write(hdrVersion, raw[:])
}

// FormatPage installs a fresh, empty page p into shared memory on node nd
// (all slots unoccupied, tag-free, version 0).
func (s *Store) FormatPage(nd machine.NodeID, p storage.PageID) error {
	base := s.PageBase(p)
	hdr := make([]byte, s.Layout.LineSize)
	binary.LittleEndian.PutUint32(hdr[hdrPageID:], uint32(p))
	if err := s.M.Install(nd, base, hdr); err != nil {
		return err
	}
	empty := make([]byte, s.Layout.LineSize)
	for i := 1; i < s.Layout.LinesPerPage; i++ {
		if err := s.M.Install(nd, base+machine.LineID(i), empty); err != nil {
			return err
		}
	}
	return nil
}

// PageImage assembles the full byte image of page p by reading every line on
// behalf of node nd (used to flush to disk). It fails with
// machine.ErrLineLost if any line is not resident.
func (s *Store) PageImage(nd machine.NodeID, p storage.PageID) ([]byte, error) {
	base := s.PageBase(p)
	out := make([]byte, 0, s.Layout.PageBytes())
	for i := 0; i < s.Layout.LinesPerPage; i++ {
		b, err := s.M.Read(nd, base+machine.LineID(i), 0, s.Layout.LineSize)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// InstallImage installs a page image (e.g. read from disk) into page p's
// frame on node nd, line by line. If onlyLost is true, lines that are still
// resident in some cache are left untouched — this is how restart recovery
// reloads exactly the destroyed portion of a page while preserving surviving
// (possibly newer) cached lines.
func (s *Store) InstallImage(nd machine.NodeID, p storage.PageID, img []byte, onlyLost bool) error {
	if len(img) != s.Layout.PageBytes() {
		return fmt.Errorf("heap: page image is %d bytes, want %d", len(img), s.Layout.PageBytes())
	}
	base := s.PageBase(p)
	for i := 0; i < s.Layout.LinesPerPage; i++ {
		l := base + machine.LineID(i)
		if onlyLost && s.M.Resident(l) {
			continue
		}
		if err := s.M.Install(nd, l, img[i*s.Layout.LineSize:(i+1)*s.Layout.LineSize]); err != nil {
			return err
		}
	}
	return nil
}

// ResidentPage reports whether every line of page p is resident somewhere.
func (s *Store) ResidentPage(p storage.PageID) bool {
	base := s.PageBase(p)
	for i := 0; i < s.Layout.LinesPerPage; i++ {
		if !s.M.Resident(base + machine.LineID(i)) {
			return false
		}
	}
	return true
}

// StripTags nulls every slot's undo tag in a raw page image. The buffer
// manager applies it before writing a page to the stable database: tags are
// an in-cache mechanism only — any update that reaches disk has, by the WAL
// rule, its undo log record on stable store, so recovery never needs tags
// from disk, and persisting them would resurrect stale tags on later
// fetches.
func StripTags(layout Layout, img []byte) {
	for line := 1; line < layout.LinesPerPage; line++ {
		for s := 0; s < layout.RecsPerLine; s++ {
			img[line*layout.LineSize+s*layout.SlotBytes()] = byte(int(machine.NoNode) + 1)
		}
	}
}

// Contains reports whether line l lies within the store's frame area
// (header or data line of some page).
func (s *Store) Contains(l machine.LineID) bool {
	idx := int(l - s.Base)
	return idx >= 0 && idx < s.NPages*s.Layout.LinesPerPage
}

// SlotOfLine maps a line back to the page and first slot it carries; ok is
// false for header lines or lines outside the store. Selective Redo's undo
// scan uses this to interpret cached lines.
func (s *Store) SlotOfLine(l machine.LineID) (p storage.PageID, firstSlot int, ok bool) {
	idx := int(l - s.Base)
	if idx < 0 || idx >= s.NPages*s.Layout.LinesPerPage {
		return 0, 0, false
	}
	p = storage.PageID(idx / s.Layout.LinesPerPage)
	lineInPage := idx % s.Layout.LinesPerPage
	if lineInPage == 0 {
		return p, 0, false // header line
	}
	return p, (lineInPage - 1) * s.Layout.RecsPerLine, true
}

// DecodeSlotFromLine decodes slot index slotInLine from a raw line image.
func DecodeSlotFromLine(layout Layout, lineImg []byte, slotInLine int) SlotData {
	off := slotInLine * layout.SlotBytes()
	return decodeSlot(lineImg[off:off+layout.SlotBytes()], layout.RecordSize())
}

func versionFrom(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40
}

func putVersion(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
}
