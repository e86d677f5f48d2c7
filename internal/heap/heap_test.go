package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"smdb/internal/machine"
	"smdb/internal/storage"
)

func testLayout(t *testing.T, recsPerLine int) Layout {
	t.Helper()
	l, err := NewLayout(128, 4, recsPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newStore(t *testing.T, nodes, recsPerLine, npages int) *Store {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, Lines: 4096})
	s := NewStore(m, testLayout(t, recsPerLine), npages)
	for p := 0; p < npages; p++ {
		if err := s.FormatPage(0, storage.PageID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// inSection runs steps inside one line section of node nd on line l: the
// only form a slot or page-header write takes.
func inSection(t *testing.T, s *Store, nd machine.NodeID, l machine.LineID, steps func(sec *machine.Section) error) {
	t.Helper()
	var sec machine.Section
	if err := s.M.Enter(&sec, nd, l); err != nil {
		t.Fatal(err)
	}
	err := steps(&sec)
	if lerr := sec.Leave(); err == nil {
		err = lerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// putSlot overwrites rid's slot with sd on behalf of node nd.
func putSlot(t *testing.T, s *Store, nd machine.NodeID, rid RID, sd SlotData) {
	t.Helper()
	line, _, err := s.LineOf(rid)
	if err != nil {
		t.Fatal(err)
	}
	inSection(t, s, nd, line, func(sec *machine.Section) error { return s.WriteSlotIn(sec, rid, sd, new(SlotBuf)) })
}

func TestLayoutArithmetic(t *testing.T) {
	l := testLayout(t, 4)
	if l.SlotBytes() != 32 {
		t.Errorf("SlotBytes = %d, want 32", l.SlotBytes())
	}
	if l.RecordSize() != 24 {
		t.Errorf("RecordSize = %d, want 24", l.RecordSize())
	}
	if l.SlotsPerPage() != 12 {
		t.Errorf("SlotsPerPage = %d, want 12", l.SlotsPerPage())
	}
	if l.PageBytes() != 512 {
		t.Errorf("PageBytes = %d, want 512", l.PageBytes())
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(128, 1, 4); err == nil {
		t.Error("LinesPerPage=1 accepted")
	}
	if _, err := NewLayout(128, 4, 0); err == nil {
		t.Error("RecsPerLine=0 accepted")
	}
	if _, err := NewLayout(16, 4, 4); err == nil {
		t.Error("impossible record size accepted")
	}
}

func TestSlotRoundTrip(t *testing.T) {
	s := newStore(t, 2, 4, 2)
	rid := RID{Page: 1, Slot: 5}
	want := SlotData{
		Tag:     1,
		Flags:   FlagOccupied,
		Version: 0x123456789a,
		Data:    []byte("hello record"),
	}
	putSlot(t, s, 0, rid, want)
	got, err := s.ReadSlot(1, rid, new(SlotBuf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != want.Tag || got.Flags != want.Flags || got.Version != want.Version {
		t.Errorf("metadata: got %+v", got)
	}
	if string(got.Data[:len(want.Data)]) != string(want.Data) {
		t.Errorf("data = %q", got.Data)
	}
	if !got.Occupied() || got.Deleted() {
		t.Errorf("flag helpers wrong: %+v", got)
	}
}

func TestSlotsShareLines(t *testing.T) {
	s := newStore(t, 2, 4, 1)
	// Slots 0..3 are on the same line; 4 is on the next.
	l0, _, err := s.LineOf(RID{Page: 0, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	l3, off3, err := s.LineOf(RID{Page: 0, Slot: 3})
	if err != nil {
		t.Fatal(err)
	}
	l4, _, err := s.LineOf(RID{Page: 0, Slot: 4})
	if err != nil {
		t.Fatal(err)
	}
	if l0 != l3 || off3 != 3*s.Layout.SlotBytes() {
		t.Errorf("slots 0 and 3: lines %d, %d off %d", l0, l3, off3)
	}
	if l4 == l0 {
		t.Error("slot 4 should be on the next line")
	}
	// One record per line layout never shares.
	s1 := newStore(t, 2, 1, 1)
	a, _, _ := s1.LineOf(RID{Page: 0, Slot: 0})
	b, _, _ := s1.LineOf(RID{Page: 0, Slot: 1})
	if a == b {
		t.Error("RecsPerLine=1 put two records in one line")
	}
}

func TestBadSlot(t *testing.T) {
	s := newStore(t, 1, 4, 1)
	for _, rid := range []RID{
		{Page: 5, Slot: 0},
		{Page: 0, Slot: 200},
	} {
		if _, err := s.ReadSlot(0, rid, new(SlotBuf)); !errors.Is(err, ErrBadSlot) {
			t.Errorf("ReadSlot(%v): err = %v, want ErrBadSlot", rid, err)
		}
	}
}

func TestWriteTagOnly(t *testing.T) {
	s := newStore(t, 2, 4, 1)
	rid := RID{Page: 0, Slot: 2}
	putSlot(t, s, 0, rid, SlotData{Tag: machine.NoNode, Flags: FlagOccupied, Version: 7, Data: []byte("x")})
	line, _, _ := s.LineOf(rid)
	inSection(t, s, 0, line, func(sec *machine.Section) error { return s.WriteTagIn(sec, rid, 1) })
	got, err := s.ReadSlot(0, rid, new(SlotBuf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 1 || got.Flags != FlagOccupied || got.Version != 7 || got.Data[0] != 'x' {
		t.Errorf("tag write clobbered slot: %+v", got)
	}
	inSection(t, s, 0, line, func(sec *machine.Section) error { return s.WriteTagIn(sec, rid, machine.NoNode) })
	got, _ = s.ReadSlot(0, rid, new(SlotBuf))
	if got.Tag != machine.NoNode {
		t.Errorf("tag clear wrong: %+v", got)
	}
	// A section on another line is refused, not written through.
	other, _, _ := s.LineOf(RID{Page: 0, Slot: 4})
	var sec machine.Section
	if err := s.M.Enter(&sec, 0, other); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTagIn(&sec, rid, 1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("WriteTagIn through another line's section: %v, want ErrBadSlot", err)
	}
	if err := sec.Leave(); err != nil {
		t.Fatal(err)
	}
}

// pageVersion reads page p's header version on behalf of node nd.
func pageVersion(t *testing.T, s *Store, nd machine.NodeID, p storage.PageID) uint64 {
	t.Helper()
	raw, err := s.M.Read(nd, s.HeaderLine(p), hdrVersion, 8)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(raw)
}

func TestPageVersion(t *testing.T) {
	s := newStore(t, 2, 2, 2)
	if v := pageVersion(t, s, 0, 1); v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	inSection(t, s, 0, s.HeaderLine(1), func(sec *machine.Section) error { return s.SetPageVersionIn(sec, 1, 991) })
	if v := pageVersion(t, s, 1, 1); v != 991 {
		t.Errorf("version = %d, want 991", v)
	}
	// Page 0's version is independent.
	if v := pageVersion(t, s, 0, 0); v != 0 {
		t.Errorf("page 0 version = %d, want 0", v)
	}
	// The step belongs to a section on the page's own header line.
	inSection(t, s, 0, s.HeaderLine(0), func(sec *machine.Section) error {
		if err := s.SetPageVersionIn(sec, 1, 5); err == nil {
			t.Error("SetPageVersionIn through another page's header section succeeded")
		}
		return nil
	})
}

func TestPageImageRoundTrip(t *testing.T) {
	s := newStore(t, 2, 4, 2)
	rid := RID{Page: 0, Slot: 1}
	putSlot(t, s, 0, rid, SlotData{Tag: 0, Flags: FlagOccupied, Version: 3, Data: []byte("abc")})
	img, err := s.PageImage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != s.Layout.PageBytes() {
		t.Fatalf("image size %d", len(img))
	}
	// Wipe the page, reinstall the image, and check the slot came back.
	for i := 0; i < s.Layout.LinesPerPage; i++ {
		if err := s.M.Discard(0, s.PageBase(0)+machine.LineID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ResidentPage(0) {
		t.Fatal("page should be gone")
	}
	if err := s.InstallImage(1, 0, img, false); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadSlot(1, rid, new(SlotBuf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || string(got.Data[:3]) != "abc" {
		t.Errorf("restored slot = %+v", got)
	}
}

func TestInstallImageOnlyLost(t *testing.T) {
	s := newStore(t, 2, 4, 1)
	// Two slots on different lines; lose one line, keep the other.
	r0 := RID{Page: 0, Slot: 0} // line 1
	r4 := RID{Page: 0, Slot: 4} // line 2
	putSlot(t, s, 0, r0, SlotData{Flags: FlagOccupied, Version: 1, Data: []byte("keep"), Tag: machine.NoNode})
	putSlot(t, s, 0, r4, SlotData{Flags: FlagOccupied, Version: 1, Data: []byte("lose"), Tag: machine.NoNode})
	img, err := s.PageImage(0, 0) // disk image with both
	if err != nil {
		t.Fatal(err)
	}
	// Update r0 in memory after the "flush", then lose r4's line only.
	putSlot(t, s, 0, r0, SlotData{Flags: FlagOccupied, Version: 2, Data: []byte("newer"), Tag: machine.NoNode})
	line4, _, _ := s.LineOf(r4)
	if err := s.M.Discard(0, line4); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallImage(1, 0, img, true); err != nil {
		t.Fatal(err)
	}
	// r4 restored from the image; r0 keeps the newer cached value.
	got4, err := s.ReadSlot(1, r4, new(SlotBuf))
	if err != nil || string(got4.Data[:4]) != "lose" {
		t.Errorf("lost slot = %+v, %v", got4, err)
	}
	got0, err := s.ReadSlot(1, r0, new(SlotBuf))
	if err != nil || got0.Version != 2 {
		t.Errorf("surviving slot overwritten: %+v, %v", got0, err)
	}
}

func TestSlotOfLine(t *testing.T) {
	s := newStore(t, 1, 4, 3)
	for _, tc := range []struct {
		rid RID
	}{
		{RID{Page: 0, Slot: 0}},
		{RID{Page: 1, Slot: 7}},
		{RID{Page: 2, Slot: 11}},
	} {
		line, _, err := s.LineOf(tc.rid)
		if err != nil {
			t.Fatal(err)
		}
		p, first, ok := s.SlotOfLine(line)
		if !ok || p != tc.rid.Page {
			t.Errorf("SlotOfLine(%d) = %d, %d, %v", line, p, first, ok)
		}
		if int(tc.rid.Slot) < first || int(tc.rid.Slot) >= first+s.Layout.RecsPerLine {
			t.Errorf("slot %d not in [%d, %d)", tc.rid.Slot, first, first+s.Layout.RecsPerLine)
		}
	}
	if _, _, ok := s.SlotOfLine(s.HeaderLine(1)); ok {
		t.Error("header line classified as data line")
	}
	if _, _, ok := s.SlotOfLine(s.Base + machine.LineID(s.NPages*s.Layout.LinesPerPage)); ok {
		t.Error("out-of-store line accepted")
	}
}

// TestQuickSlotEncodeDecode: any slot data round-trips through a line image.
func TestQuickSlotEncodeDecode(t *testing.T) {
	layout, err := NewLayout(128, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(tag uint8, flags byte, version uint64, data []byte) bool {
		version &= 1<<48 - 1
		sd := SlotData{
			Tag:     machine.NodeID(int(tag%65) - 1),
			Flags:   flags,
			Version: version,
		}
		if len(data) > layout.RecordSize() {
			data = data[:layout.RecordSize()]
		}
		sd.Data = data
		raw := bytes.Repeat([]byte{0xee}, layout.SlotBytes()) // a reused buffer: stale bytes everywhere
		EncodeSlot(raw, sd)
		// Embed in a line image at each slot position.
		for pos := 0; pos < layout.RecsPerLine; pos++ {
			img := make([]byte, layout.LineSize)
			copy(img[pos*layout.SlotBytes():], raw)
			got := DecodeSlotFromLine(layout, img, pos)
			if got.Tag != sd.Tag || got.Flags != sd.Flags || got.Version != sd.Version {
				return false
			}
			for i, b := range data {
				if got.Data[i] != b {
					return false
				}
			}
			for _, b := range got.Data[len(data):] {
				if b != 0 {
					return false // the payload is zero-padded whatever the buffer held
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickVersionRoundTrip: 48-bit versions survive the packed encoding.
func TestQuickVersionRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= 1<<48 - 1
		var b [versionBytes]byte
		putVersion(b[:], v)
		return versionFrom(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
