package storage

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// readPage reads page id into a fresh buffer.
func readPage(d *Disk, id PageID) ([]byte, error) {
	buf := make([]byte, d.PageSize())
	return buf, d.ReadPage(id, buf)
}

func TestDiskRoundTrip(t *testing.T) {
	d := NewDisk(256)
	if d.PageSize() != 256 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
	if _, err := readPage(d, 3); !errors.Is(err, ErrNoPage) {
		t.Errorf("read of missing page: err = %v, want ErrNoPage", err)
	}
	if d.Exists(3) {
		t.Error("Exists(3) before write")
	}
	want := bytes.Repeat([]byte{7}, 256)
	if err := d.WritePage(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read back differs")
	}
	if !d.Exists(3) {
		t.Error("Exists(3) after write")
	}
	r, w := d.IOCounts()
	if r != 1 || w != 1 {
		t.Errorf("IOCounts = %d, %d; want 1, 1", r, w)
	}
}

func TestDiskShortWriteZeroPads(t *testing.T) {
	d := NewDisk(16)
	if err := d.WritePage(0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := readPage(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16)
	want[0], want[1] = 1, 2
	if !bytes.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDiskOversizeWriteRejected(t *testing.T) {
	d := NewDisk(8)
	if err := d.WritePage(0, make([]byte, 9)); err == nil {
		t.Error("oversize write accepted")
	}
}

func TestDiskReadReturnsCopy(t *testing.T) {
	d := NewDisk(8)
	if err := d.WritePage(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, _ := readPage(d, 0)
	got[0] = 99
	again, _ := readPage(d, 0)
	if again[0] != 1 {
		t.Error("ReadPage exposed internal buffer")
	}
}

func TestNewDiskPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDisk(0) did not panic")
		}
	}()
	NewDisk(0)
}

func TestLogDeviceAppend(t *testing.T) {
	d := NewLogDevice()
	o1, err := d.Append([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := d.Append([]byte("de"))
	if err != nil {
		t.Fatal(err)
	}
	if o1 != 0 || o2 != 3 {
		t.Errorf("offsets = %d, %d; want 0, 3", o1, o2)
	}
	if d.Size() != 5 {
		t.Errorf("Size = %d, want 5", d.Size())
	}
	if d.Forces() != 2 {
		t.Errorf("Forces = %d, want 2", d.Forces())
	}
	if got := d.Contents(); string(got) != "abcde" {
		t.Errorf("Contents = %q", got)
	}
	// Only Contents is a device read; Size and Forces are not.
	if d.Reads() != 1 {
		t.Errorf("Reads = %d, want 1", d.Reads())
	}
}

func TestLogDeviceContentsIsCopy(t *testing.T) {
	d := NewLogDevice()
	d.Append([]byte{1})
	c := d.Contents()
	c[0] = 9
	if d.Contents()[0] != 1 {
		t.Error("Contents exposed internal buffer")
	}
}

func TestFaultHooks(t *testing.T) {
	d := NewDisk(16)
	if err := d.WritePage(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	fail := true
	fault := func(op string) error {
		if fail {
			return ErrTransient
		}
		return nil
	}
	d.SetFault(fault)
	if _, err := readPage(d, 0); !errors.Is(err, ErrTransient) {
		t.Errorf("read under fault: err = %v, want ErrTransient", err)
	}
	if err := d.WritePage(0, []byte{2}); !errors.Is(err, ErrTransient) {
		t.Errorf("write under fault: err = %v, want ErrTransient", err)
	}
	fail = false
	if _, err := readPage(d, 0); err != nil {
		t.Errorf("read after fault cleared: %v", err)
	}
	d.SetFault(nil)

	ld := NewLogDevice()
	ld.SetFault(fault)
	fail = true
	if _, err := ld.Append([]byte("x")); !errors.Is(err, ErrTransient) {
		t.Errorf("append under fault: err = %v, want ErrTransient", err)
	}
	if ld.Size() != 0 {
		t.Errorf("failed append wrote %d bytes", ld.Size())
	}
	fail = false
	if _, err := ld.Append([]byte("x")); err != nil {
		t.Errorf("append after fault cleared: %v", err)
	}
}

func TestRetryPolicyBackoffDoubles(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BackoffNanos: 100}
	for i, want := range []int64{100, 200, 400} {
		if got := p.Backoff(i + 1); got != want {
			t.Errorf("Backoff(%d) = %d, want %d", i+1, got, want)
		}
	}
}

func TestDiskConcurrent(t *testing.T) {
	d := NewDisk(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := PageID(j % 10)
				_ = d.WritePage(id, []byte{byte(i), byte(j)})
				if b, err := readPage(d, id); err == nil && len(b) != 64 {
					t.Errorf("short page: %d", len(b))
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestQuickDiskLastWriteWins: after any sequence of writes, each page holds
// its last written (zero-padded) content.
func TestQuickDiskLastWriteWins(t *testing.T) {
	type wr struct {
		ID   uint8
		Data []byte
	}
	f := func(writes []wr) bool {
		d := NewDisk(32)
		last := map[PageID][]byte{}
		for _, w := range writes {
			data := w.Data
			if len(data) > 32 {
				data = data[:32]
			}
			id := PageID(w.ID % 8)
			if err := d.WritePage(id, data); err != nil {
				return false
			}
			p := make([]byte, 32)
			copy(p, data)
			last[id] = p
		}
		for id, want := range last {
			got, err := readPage(d, id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLogDeviceIsAppendOnly: the device's contents are always the
// concatenation of everything appended, and offsets are strictly increasing.
func TestQuickLogDeviceIsAppendOnly(t *testing.T) {
	f := func(chunks [][]byte) bool {
		d := NewLogDevice()
		var want []byte
		prev := int64(-1)
		for _, c := range chunks {
			off, err := d.Append(c)
			if err != nil {
				return false
			}
			if off != int64(len(want)) || off <= prev && len(c) > 0 && prev >= 0 && off != prev {
				return false
			}
			prev = off
			want = append(want, c...)
		}
		return bytes.Equal(d.Contents(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLogDeviceChunksMatchSingleBuffer compares the chunked device against
// the single growing buffer it replaced, across appends that end before, at
// and past a chunk edge, and across Truncate.
func TestLogDeviceChunksMatchSingleBuffer(t *testing.T) {
	d := NewLogDevice()
	var flat []byte
	check := func(step string) {
		t.Helper()
		if d.Size() != int64(len(flat)) || !bytes.Equal(d.Contents(), flat) {
			t.Fatalf("%s: device holds %d bytes, want %d (or they differ)", step, d.Size(), len(flat))
		}
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	check("empty")
	forces := int64(0)
	for i, n := range []int{1, logChunk - 2, 1, 5, logChunk, 3 * logChunk, 0, logChunk - 9, 7} {
		data := fill(n, byte(i+1))
		off, err := d.Append(data)
		if err != nil || off != int64(len(flat)) {
			t.Fatalf("append %d (%d bytes): offset %d, %v; want %d", i, n, off, err, len(flat))
		}
		flat = append(flat, data...)
		forces++
		check(fmt.Sprintf("append %d (%d bytes)", i, n))
	}
	if d.Forces() != forces {
		t.Errorf("Forces = %d, want %d", d.Forces(), forces)
	}
	got := d.Contents()
	got[0] ^= 0xff // Contents is a copy
	check("after scribbling on a Contents copy")
	for _, keep := range []int{2*logChunk + 17, logChunk, 5, 0} {
		flat = append([]byte(nil), flat[:keep]...)
		d.Truncate(flat)
		check(fmt.Sprintf("truncate to %d", keep))
		data := fill(100, 0xab)
		if off, err := d.Append(data); err != nil || off != int64(keep) {
			t.Fatalf("append after truncate to %d: offset %d, %v", keep, off, err)
		}
		flat = append(flat, data...)
		forces++
		check(fmt.Sprintf("append after truncate to %d", keep))
	}
	if d.Forces() != forces {
		t.Errorf("Forces = %d after truncations, want %d (Truncate is not a force)", d.Forces(), forces)
	}
}

// TestLogDeviceKeepsAppendsWhole: an append goes into one chunk — on the end
// of the last if it fits, else into a new one of at least logChunk bytes —
// so every chunk edge is an append edge.
func TestLogDeviceKeepsAppendsWhole(t *testing.T) {
	d := NewLogDevice()
	edges := map[int64]bool{0: true}
	var flat []byte
	for i, n := range []int{100, logChunk - 150, 60, 40, 3 * logChunk, 1, logChunk, 7} {
		data := bytes.Repeat([]byte{byte(i + 1)}, n)
		if _, err := d.Append(data); err != nil {
			t.Fatal(err)
		}
		flat = append(flat, data...)
		edges[int64(len(flat))] = true
	}
	var lens []int
	d.Walk(func(chunks [][]byte) {
		var off int64
		for _, c := range chunks {
			lens = append(lens, len(c))
			off += int64(len(c))
			if !edges[off] {
				t.Errorf("a chunk ends at byte %d, inside an append", off)
			}
		}
	})
	// 100 and 65386 fill the first chunk but for 50 bytes; 60 begins the
	// second, 40 joins it; the 192 KiB append takes a chunk of its own; 1
	// begins another, which the 64 KiB append does not fit; that one fills
	// its chunk, so 7 begins the last.
	if want := []int{logChunk - 50, 100, 3 * logChunk, 1, logChunk, 7}; !reflect.DeepEqual(lens, want) {
		t.Errorf("chunk lengths %v, want %v", lens, want)
	}
	if d.Size() != int64(len(flat)) || !bytes.Equal(d.Contents(), flat) {
		t.Error("the chunks do not hold the appends back to back")
	}
	if d.Reads() != 2 {
		t.Errorf("Reads = %d after one Walk and one Contents, want 2", d.Reads())
	}
}

// TestLogDeviceCutAndTruncateLeaveReadBytesAlone: bytes a Walk handed out
// keep their values through every later write — appends, a Cut and the
// appends after it, Truncate — and Cut shortens the contents in place.
func TestLogDeviceCutAndTruncateLeaveReadBytesAlone(t *testing.T) {
	d := NewLogDevice()
	d.Append(bytes.Repeat([]byte{1}, 1000))
	d.Append(bytes.Repeat([]byte{2}, 500))
	var held []byte
	d.Walk(func(chunks [][]byte) { held = chunks[0][:1200] })
	want := bytes.Clone(held)
	check := func(step string) {
		t.Helper()
		if !bytes.Equal(held, want) {
			t.Fatalf("after %s: bytes a Walk handed out changed", step)
		}
	}
	d.Append(bytes.Repeat([]byte{3}, 100))
	check("an append")
	for _, size := range []int64{5000, 1600, 1300, 1200} {
		d.Cut(size)
		if got := min(size, 1600); d.Size() != got || int64(len(d.Contents())) != got {
			t.Fatalf("Cut(%d): %d bytes left, want %d", size, d.Size(), got)
		}
	}
	d.Append(bytes.Repeat([]byte{4}, 300))
	check("a Cut and an append behind it")
	if c := d.Contents(); len(c) != 1500 || c[1199] != 2 || c[1200] != 4 {
		t.Fatalf("after Cut(1200) and a 300-byte append: %d bytes, [1199]=%d [1200]=%d", len(c), c[1199], c[1200])
	}
	d.Cut(0)
	if d.Size() != 0 || len(d.Contents()) != 0 {
		t.Fatalf("Cut(0) left %d bytes", d.Size())
	}
	d.Append(bytes.Repeat([]byte{5}, 2000))
	check("Cut(0) and an append")
	d.Truncate(bytes.Repeat([]byte{6}, 3000))
	check("Truncate")
	if d.Forces() != 5 {
		t.Errorf("Forces = %d, want 5 (Cut and Truncate are not forces)", d.Forces())
	}
}
