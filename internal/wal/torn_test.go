package wal

import (
	"bytes"
	"testing"

	"smdb/internal/storage"
)

// tornDevice builds a log device holding n whole records followed by a
// partial (torn) final record, returning the device and the torn byte count.
func tornDevice(t *testing.T, n int) (*storage.LogDevice, int) {
	t.Helper()
	dev := storage.NewLogDevice()
	var buf []byte
	for i := 0; i < n; i++ {
		r := Record{Type: TypeUpdate, Txn: MakeTxnID(0, uint64(i+1)),
			Page: 1, Slot: uint16(i), Version: uint64(i + 1),
			Before: []byte{byte(i)}, After: []byte{byte(i + 1)}}
		buf = append(buf, Marshal(&r)...)
	}
	last := Marshal(&Record{Type: TypeCommit, Txn: MakeTxnID(0, uint64(n+1))})
	torn := len(last) / 2
	buf = append(buf, last[:torn]...)
	if _, err := dev.Append(buf); err != nil {
		t.Fatal(err)
	}
	return dev, torn
}

// The satellite bugfix: DecodeAll must stop at the last checksum-valid
// record and report the torn tail, not fail the whole log open.
func TestDecodeAllTornTail(t *testing.T) {
	dev, torn := tornDevice(t, 3)
	recs, got := DecodeAll(dev.Contents())
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	if got != torn {
		t.Errorf("tornBytes = %d, want %d", got, torn)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Errorf("record %d: LSN = %d, want %d", i, r.LSN, i+1)
		}
	}
	// A checksum-corrupt (not merely truncated) tail is also cut off.
	c := dev.Contents()
	c[len(c)-torn-3] ^= 0xff // flip a bit inside the last whole record's body
	recs, got = DecodeAll(c)
	if len(recs) != 2 || got == 0 {
		t.Errorf("corrupt tail: decoded %d records (torn %d), want 2 with torn > 0", len(recs), got)
	}
}

func TestNewLogRepairsTornTail(t *testing.T) {
	dev, torn := tornDevice(t, 2)
	sizeBefore := dev.Size()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	if l.TornBytes() != torn {
		t.Errorf("TornBytes = %d, want %d", l.TornBytes(), torn)
	}
	if got := l.ForcedLSN(); got != 2 {
		t.Errorf("ForcedLSN = %d, want 2", got)
	}
	if dev.Size() != sizeBefore-int64(torn) {
		t.Errorf("device not repaired: size %d, want %d", dev.Size(), sizeBefore-int64(torn))
	}
	// The repaired device must round-trip cleanly.
	if recs, torn := DecodeAll(dev.Contents()); len(recs) != 2 || torn != 0 {
		t.Errorf("after repair: %d records, %d torn bytes", len(recs), torn)
	}
}

func TestForceTornLeavesRecoverableTail(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(1, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Append(Record{Type: TypeUpdate, Txn: MakeTxnID(1, 1), Page: 2,
			Slot: uint16(i), Version: uint64(i + 1), After: []byte{byte(i)}})
	}
	whole, torn := l.ForceTorn(4, 0.6)
	if whole >= 4 {
		t.Fatalf("torn force completed: %d whole records", whole)
	}
	if torn == 0 {
		t.Fatal("torn force left no partial bytes (want a torn tail)")
	}
	if got := l.ForcedLSN(); got != LSN(whole) {
		t.Errorf("ForcedLSN = %d, want %d", got, whole)
	}
	// The forcing node died: the log is down, appends are dropped.
	if lsn := l.Append(Record{Type: TypeCommit, Txn: MakeTxnID(1, 1)}); lsn != 0 {
		t.Errorf("append on downed log returned LSN %d", lsn)
	}
	// Recovery reads only the checksum-valid prefix.
	recs := stableAll(l)
	if len(recs) != whole {
		t.Errorf("StableRecords = %d records, want %d", len(recs), whole)
	}
	// Reopen truncates the torn tail from the device.
	l.Reopen()
	if recs, torn := DecodeAll(dev.Contents()); len(recs) != whole || torn != 0 {
		t.Errorf("after Reopen: %d records, %d torn bytes; want %d, 0", len(recs), torn, whole)
	}
	// And a restarted incarnation opens the same device cleanly.
	l2, err := NewLog(1, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Len(); got != whole {
		t.Errorf("restarted log has %d records, want %d", got, whole)
	}
}

func TestForceRetriesTransientErrors(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: TypeUpdate, Txn: MakeTxnID(0, 1), After: []byte{1}})
	fails := 2
	dev.SetFault(func(op string) error {
		if fails > 0 {
			fails--
			return storage.ErrTransient
		}
		return nil
	})
	if n, forced := l.Force(1); n != 1 || !forced {
		t.Fatalf("Force under transient faults = (%d, %v), want (1, true)", n, forced)
	}
	if l.IORetries() != 2 {
		t.Errorf("IORetries = %d, want 2", l.IORetries())
	}
	dev.SetFault(nil)
	if recs, torn := DecodeAll(dev.Contents()); len(recs) != 1 || torn != 0 {
		t.Errorf("device holds %d records, %d torn bytes", len(recs), torn)
	}
}

func TestForcePersistentFailureDoesNotAdvance(t *testing.T) {
	dev := storage.NewLogDevice()
	l, err := NewLog(0, dev)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: TypeCommit, Txn: MakeTxnID(0, 1)})
	dev.SetFault(func(string) error { return storage.ErrTransient })
	if n, forced := l.Force(1); n != 0 || forced {
		t.Fatalf("Force under permanent faults = (%d, %v), want (0, false)", n, forced)
	}
	if got := l.ForcedLSN(); got != 0 {
		t.Errorf("ForcedLSN advanced to %d on failed force", got)
	}
	if !bytes.Equal(dev.Contents(), nil) {
		t.Errorf("failed force wrote %d bytes", dev.Size())
	}
}
