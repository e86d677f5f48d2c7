package wal

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"smdb/internal/machine"
	"smdb/internal/storage"
)

func TestTxnID(t *testing.T) {
	id := MakeTxnID(7, 123456)
	if id.Node() != 7 {
		t.Errorf("Node = %d, want 7", id.Node())
	}
	if id.Seq() != 123456 {
		t.Errorf("Seq = %d, want 123456", id.Seq())
	}
	if id.String() != "t7.123456" {
		t.Errorf("String = %q", id.String())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: TypeUpdate, Txn: MakeTxnID(1, 2), PrevLSN: 9, Page: 44, Slot: 3,
			Version: 77, Before: []byte("old"), After: []byte("newer")},
		{Type: TypeCommit, Txn: MakeTxnID(0, 1)},
		{Type: TypeLockAcquire, Txn: MakeTxnID(2, 5), Lock: 0xdeadbeef, Mode: 1},
		{Type: TypeNTABegin, Txn: MakeTxnID(3, 9), NTA: 42},
		{Type: TypeCheckpoint},
		{Type: TypeCLR, Txn: MakeTxnID(1, 2), Page: 44, Slot: 3, Version: 80, After: []byte("old")},
	}
	for _, want := range recs {
		buf := Marshal(&want)
		got, n, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", want.Type, err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d bytes", n, len(buf))
		}
		got.LSN = want.LSN // LSN is positional, not encoded
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	r := Record{Type: TypeUpdate, Txn: 1, After: []byte("x")}
	buf := Marshal(&r)
	// Flip a body byte: checksum must fail.
	buf[len(buf)-1] ^= 0xff
	if _, _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt body: err = %v, want ErrCorrupt", err)
	}
	// Truncated header.
	if _, _, err := Unmarshal(buf[:3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short header: err = %v, want ErrCorrupt", err)
	}
	// Truncated body.
	buf = Marshal(&r)
	if _, _, err := Unmarshal(buf[:len(buf)-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short body: err = %v, want ErrCorrupt", err)
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(typ uint8, txn uint64, page int32, slot uint16, version, lock, nta uint64, mode uint8, before, after []byte) bool {
		if len(before) > 60000 {
			before = before[:60000]
		}
		if len(after) > 60000 {
			after = after[:60000]
		}
		want := Record{
			Type: RecordType(typ), Txn: TxnID(txn), Page: storage.PageID(page),
			Slot: slot, Version: version, Lock: lock, NTA: nta, Mode: mode,
		}
		if len(before) > 0 {
			want.Before = before
		}
		if len(after) > 0 {
			want.After = after
		}
		got, n, err := Unmarshal(Marshal(&want))
		if err != nil || n == 0 {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newLog(t *testing.T) *Log {
	t.Helper()
	l, err := NewLog(0, storage.NewLogDevice())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLogLayout pins what keeps one node's appends off the lines of every
// other node's Log: a Log is a whole number of 64-byte lines, so the
// allocator starts each one on a line boundary.
func TestLogLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Log{}); sz%64 != 0 {
		t.Errorf("Log is %d bytes, not a multiple of 64", sz)
	}
	for n := machine.NodeID(0); n < 8; n++ {
		l, err := NewLog(n, storage.NewLogDevice())
		if err != nil {
			t.Fatal(err)
		}
		if a := uintptr(unsafe.Pointer(l)); a%64 != 0 {
			t.Errorf("node %d's Log at %#x, not on a 64-byte boundary", n, a)
		}
	}
}

func TestLogAppendAssignsLSNs(t *testing.T) {
	l := newLog(t)
	tx := MakeTxnID(0, 1)
	l1 := l.Append(Record{Type: TypeUpdate, Txn: tx})
	l2 := l.Append(Record{Type: TypeUpdate, Txn: tx, PrevLSN: l1})
	l3 := l.Append(Record{Type: TypeCommit, Txn: tx})
	if l1 != 1 || l2 != 2 || l3 != 3 {
		t.Errorf("LSNs = %d, %d, %d; want 1, 2, 3", l1, l2, l3)
	}
	if l.NextLSN() != 4 {
		t.Errorf("NextLSN = %d, want 4", l.NextLSN())
	}
	// The log keeps no chain of its own: PrevLSN is what the writer set.
	for lsn, want := range map[LSN]LSN{1: 0, 2: 1, 3: 0} {
		if r, ok := l.Get(lsn); !ok || r.PrevLSN != want {
			t.Errorf("record %d: PrevLSN = %d, %v; want %d as appended", lsn, r.PrevLSN, ok, want)
		}
	}
}

func TestLogForceAndCrash(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(3, dev)
	if err != nil {
		t.Fatal(err)
	}
	tx := MakeTxnID(3, 1)
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: TypeUpdate, Txn: tx, Version: uint64(i)})
	}
	n, forced := l.Force(3)
	if n != 3 || !forced {
		t.Fatalf("Force(3) = %d, %v; want 3, true", n, forced)
	}
	if l.ForcedLSN() != 3 {
		t.Errorf("ForcedLSN = %d, want 3", l.ForcedLSN())
	}
	// Forcing an already-stable prefix is a no-op (no physical force).
	if n, forced := l.Force(2); n != 0 || forced {
		t.Errorf("redundant force = %d, %v; want 0, false", n, forced)
	}
	devForces := dev.Forces()
	if devForces != 1 {
		t.Errorf("device forces = %d, want 1", devForces)
	}
	// Crash: volatile tail (records 4, 5) is destroyed.
	if lost := l.Crash(); lost != 2 {
		t.Errorf("Crash lost %d records, want 2", lost)
	}
	if l.Len() != 3 {
		t.Errorf("Len after crash = %d, want 3", l.Len())
	}
	// The stable device still decodes to the surviving prefix.
	stable := stableAll(l)
	if len(stable) != 3 {
		t.Errorf("stable records = %d, want 3", len(stable))
	}
	// While the node is down, appends and forces are dropped (the CPU has
	// stopped; late writes by its zombie goroutines must not reach the
	// stable device).
	if lsn := l.Append(Record{Type: TypeAbort, Txn: tx}); lsn != 0 {
		t.Errorf("append while down = LSN %d, want 0", lsn)
	}
	if n, forced := l.Force(10); n != 0 || forced {
		t.Errorf("force while down = %d, %v", n, forced)
	}
	// After Reopen, appends continue after the stable prefix.
	l.Reopen()
	if lsn := l.Append(Record{Type: TypeAbort, Txn: tx}); lsn != 4 {
		t.Errorf("post-restart LSN = %d, want 4", lsn)
	}
}

func TestLogRecoverFromDevice(t *testing.T) {
	dev := storage.NewLogDevice()
	l1, err := NewLog(1, dev)
	if err != nil {
		t.Fatal(err)
	}
	tx := MakeTxnID(1, 9)
	l1.Append(Record{Type: TypeUpdate, Txn: tx, After: []byte("a")})
	l1.Append(Record{Type: TypeCheckpoint})
	l1.Append(Record{Type: TypeUpdate, Txn: tx, After: []byte("b")})
	l1.ForceAll()

	// A fresh Log over the same device (restarted node) sees everything.
	l2, err := NewLog(1, dev)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 3 {
		t.Fatalf("recovered Len = %d, want 3", l2.Len())
	}
	if l2.LastCheckpoint() != 2 {
		t.Errorf("LastCheckpoint = %d, want 2", l2.LastCheckpoint())
	}
	if l2.ForcedLSN() != 3 {
		t.Errorf("ForcedLSN = %d, want 3", l2.ForcedLSN())
	}
	recs := l2.Records(2)
	if len(recs) != 2 || recs[0].Type != TypeCheckpoint {
		t.Errorf("Records(2) = %+v", recs)
	}
}

func TestLogCheckpointTracking(t *testing.T) {
	l := newLog(t)
	if l.LastCheckpoint() != 0 {
		t.Errorf("initial LastCheckpoint = %d", l.LastCheckpoint())
	}
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	ck := l.Append(Record{Type: TypeCheckpoint})
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	if l.LastCheckpoint() != ck {
		t.Errorf("LastCheckpoint = %d, want %d", l.LastCheckpoint(), ck)
	}
	// An unforced checkpoint does not survive a crash.
	l.Crash()
	if l.LastCheckpoint() != 0 {
		t.Errorf("LastCheckpoint after crash = %d, want 0", l.LastCheckpoint())
	}
}

func TestLogRecordsCopy(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: TypeUpdate, Txn: 1, Version: 5})
	recs := l.Records(1)
	recs[0].Version = 99
	r, _ := l.Get(1)
	if r.Version != 5 {
		t.Error("Records exposed internal storage")
	}
}

// TestQuickLogForcePrefix checks that for any interleaving of appends,
// forces, and crashes, the stable device always decodes to a prefix of the
// in-memory log, and the in-memory log never shrinks below the stable
// prefix.
func TestQuickLogForcePrefix(t *testing.T) {
	f := func(ops []uint8) bool {
		dev := storage.NewLogDevice()
		l, err := NewLog(0, dev)
		if err != nil {
			return false
		}
		ver := uint64(0)
		for _, op := range ops {
			switch op % 5 {
			case 0, 1:
				ver++
				l.Append(Record{Type: TypeUpdate, Txn: 1, Version: ver})
			case 2:
				l.Force(LSN(int(op))) // arbitrary target
			case 3:
				l.Crash()
				l.Reopen() // next incarnation
			case 4:
				l.DiscardThrough(LSN(int(op) / 2)) // arbitrary horizon
			}
			stable := stableAll(l)
			if l.FirstLSN()+LSN(len(stable))-1 != l.ForcedLSN() {
				return false
			}
			all := l.Records(1)
			if len(all) < len(stable) {
				return false
			}
			for i := range stable {
				if stable[i].Version != all[i].Version || stable[i].LSN != all[i].LSN {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDiscardThrough(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := MakeTxnID(0, 1), MakeTxnID(0, 2)
	l.Append(Record{Type: TypeUpdate, Txn: t1, Version: 1}) // LSN 1
	l.Append(Record{Type: TypeCommit, Txn: t1})             // LSN 2
	l.Append(Record{Type: TypeUpdate, Txn: t2, Version: 3}) // LSN 3 (active)
	ck := l.Append(Record{Type: TypeCheckpoint})            // LSN 4
	l.ForceAll()

	// The caller's low-water mark protects t2's records: discard through LSN 2.
	if n := l.DiscardThrough(2); n != 2 {
		t.Fatalf("discarded %d, want 2", n)
	}
	if l.FirstLSN() != 3 {
		t.Errorf("FirstLSN = %d, want 3", l.FirstLSN())
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	// LSNs keep their identity across truncation.
	if r, ok := l.Get(3); !ok || r.Txn != t2 {
		t.Errorf("Get(3) = %+v, %v", r, ok)
	}
	if _, ok := l.Get(2); ok {
		t.Error("discarded record still visible")
	}
	if l.LastCheckpoint() != ck {
		t.Errorf("LastCheckpoint = %d, want %d", l.LastCheckpoint(), ck)
	}
	// The stable device was rewritten and re-bases correctly.
	stable := stableAll(l)
	if len(stable) != 2 || stable[0].LSN != 3 || stable[1].LSN != 4 {
		t.Errorf("stable after truncation = %+v", stable)
	}
	// Appends continue with monotone LSNs; ForcedLSN accounts the base.
	if lsn := l.Append(Record{Type: TypeUpdate, Txn: t2, Version: 9}); lsn != 5 {
		t.Errorf("post-truncation LSN = %d, want 5", lsn)
	}
	if l.ForcedLSN() != 4 {
		t.Errorf("ForcedLSN = %d, want 4", l.ForcedLSN())
	}
	// Crash after truncation: the volatile record dies, prefix intact.
	if lost := l.Crash(); lost != 1 {
		t.Errorf("lost %d, want 1", lost)
	}
	if l.FirstLSN() != 3 || l.Len() != 2 {
		t.Errorf("post-crash state: first=%d len=%d", l.FirstLSN(), l.Len())
	}
}

func TestDiscardThroughClamps(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	l.Force(1) // only LSN 1 is stable
	// Cannot discard past the stable horizon.
	if n := l.DiscardThrough(99); n != 1 {
		t.Errorf("discarded %d, want 1 (clamped to stable)", n)
	}
	// Discarding below the horizon is a no-op.
	if n := l.DiscardThrough(0); n != 0 {
		t.Errorf("no-op discard removed %d", n)
	}
}
