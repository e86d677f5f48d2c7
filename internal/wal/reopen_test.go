package wal

import (
	"bytes"
	"reflect"
	"testing"

	"smdb/internal/storage"
)

// Crash keeps the checkpoint mark when its record was stable, and looks for
// the previous one only when the newest was in the lost tail; Reopen reuses
// the last walk to the end of the device's valid prefix while nothing has
// written the device since.

func TestCrashKeepsAStableCheckpointMark(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	ck := l.Append(Record{Type: TypeCheckpoint})
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	l.ForceAll()
	l.Append(Record{Type: TypeCommit, Txn: 1}) // the volatile tail
	if lost := l.Crash(); lost != 1 {
		t.Fatalf("Crash lost %d records, want 1", lost)
	}
	if got := l.LastCheckpoint(); got != ck {
		t.Errorf("LastCheckpoint after crash = %d, want the stable %d", got, ck)
	}
}

func TestCrashFallsBackToTheLastStableCheckpoint(t *testing.T) {
	l := newLog(t)
	old := l.Append(Record{Type: TypeCheckpoint}) // discarded below
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	l.Append(Record{Type: TypeCheckpoint})
	newer := l.Append(Record{Type: TypeCheckpoint})
	for i := 0; i < 3*blockLen; i++ { // a stable run longer than a block
		l.Append(Record{Type: TypeCommit, Txn: 2})
	}
	l.ForceAll()
	l.DiscardThrough(old)
	l.Append(Record{Type: TypeUpdate, Txn: 3})
	if lost := l.Append(Record{Type: TypeCheckpoint}); l.LastCheckpoint() != lost {
		t.Fatalf("LastCheckpoint = %d before the crash, want %d", l.LastCheckpoint(), lost)
	}
	l.Append(Record{Type: TypeUpdate, Txn: 3})
	if n := l.Crash(); n != 3 {
		t.Fatalf("Crash lost %d records, want 3", n)
	}
	if got := l.LastCheckpoint(); got != newer {
		t.Errorf("LastCheckpoint after crash = %d, want %d, the newest stable one", got, newer)
	}
	// No stable checkpoint at all: the mark goes to 0.
	l = newLog(t)
	l.Append(Record{Type: TypeUpdate, Txn: 1})
	l.ForceAll()
	l.Append(Record{Type: TypeCheckpoint})
	l.Crash()
	if got := l.LastCheckpoint(); got != 0 {
		t.Errorf("LastCheckpoint after losing the only checkpoint = %d, want 0", got)
	}
}

func TestCrashWithNoCheckpointLeavesTheMarkAtZero(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: TypeUpdate, Txn: 1})
	}
	l.Force(3)
	l.Crash()
	if got := l.LastCheckpoint(); got != 0 {
		t.Errorf("LastCheckpoint = %d, want 0", got)
	}
}

// rawWrites are the device writes FuzzStableWalk makes behind a log's back
// between its walk and its Reopen: each changes the contents, so Reopen must
// read the device again.
var rawWrites = []func(dev *storage.LogDevice, contents []byte){
	nil, // none: Reopen reuses the walk
	func(dev *storage.LogDevice, _ []byte) { // a whole frame appended
		if _, err := dev.Append(Marshal(&Record{Type: TypeCommit, Txn: 9})); err != nil {
			panic(err)
		}
	},
	func(dev *storage.LogDevice, contents []byte) { // the first half kept
		dev.Truncate(contents[:len(contents)/2])
	},
	func(dev *storage.LogDevice, contents []byte) { // the last byte cut, or one appended
		if len(contents) == 0 {
			if _, err := dev.Append([]byte{1}); err != nil {
				panic(err)
			}
			return
		}
		dev.Cut(int64(len(contents)) - 1)
	},
}

// FuzzStableWalk: on a device holding forced frames, a torn force and junk
// bytes, NewLog reads what DecodeAll reads; Reopen after StableRecords
// leaves the device byte for byte as a walking Reopen does, reading it no
// more; and after a raw write between the two it walks again (one read).
func FuzzStableWalk(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), []byte(nil), uint8(0))
	f.Add(uint8(9), uint8(9), uint16(0), []byte(nil), uint8(0))
	f.Add(uint8(9), uint8(4), uint16(30000), []byte(nil), uint8(0))
	f.Add(uint8(9), uint8(4), uint16(30000), []byte{7, 0, 0, 0, 1}, uint8(0))
	f.Add(uint8(40), uint8(17), uint16(65535), []byte{0xff, 0xff}, uint8(1))
	f.Add(uint8(12), uint8(12), uint16(0), []byte(nil), uint8(2))
	f.Add(uint8(12), uint8(5), uint16(9000), []byte{3}, uint8(3))
	f.Add(uint8(0), uint8(0), uint16(0), []byte(nil), uint8(3))
	f.Add(uint8(3), uint8(1), uint16(40000), frameOf([]byte{byte(TypeCommit), 0, 0}), uint8(1))
	f.Fuzz(func(t *testing.T, n, forced uint8, tear uint16, junk []byte, op uint8) {
		n %= 64
		build := func() (*Log, *storage.LogDevice) {
			dev := storage.NewLogDevice()
			l, err := NewLog(0, dev)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < int(n); i++ {
				l.Append(stableRecord(i, 8))
			}
			l.Force(LSN(forced % (n + 1)))
			l.ForceTorn(LSN(n), float64(tear)/65536) // the node dies mid-force
			if _, err := dev.Append(junk); err != nil {
				t.Fatal(err)
			}
			l.Crash()
			return l, dev
		}
		write := rawWrites[int(op)%len(rawWrites)]

		_, dev := build()
		contents := dev.Contents()
		want, wantTorn := DecodeAll(contents)
		opened, err := NewLog(0, dev)
		if err != nil {
			t.Fatal(err)
		}
		if opened.Len() != len(want) || opened.TornBytes() != wantTorn || dev.Size() != int64(len(contents)-wantTorn) {
			t.Fatalf("NewLog: %d records, %d torn bytes, %d left; DecodeAll %d, %d of %d",
				opened.Len(), opened.TornBytes(), dev.Size(), len(want), wantTorn, len(contents))
		}

		// A: recovery's walk, then Reopen. B: Reopen alone, which walks.
		la, deva := build()
		got := la.StableRecords(0, keepAll)
		if len(got) != len(want) {
			t.Fatalf("StableRecords reads %d records, DecodeAll %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], want[i]) {
				t.Fatalf("record %d is %+v in place, %+v decoded", i, *got[i], want[i])
			}
		}
		lb, devb := build()
		wantReads := int64(0)
		if write != nil {
			write(deva, contents)
			write(devb, contents)
			wantReads = 1
		}
		base := deva.Reads()
		la.Reopen()
		if got := deva.Reads() - base; got != wantReads {
			t.Errorf("Reopen read the device %d times, want %d", got, wantReads)
		}
		lb.Reopen()
		if a, b := deva.Contents(), devb.Contents(); !bytes.Equal(a, b) {
			t.Fatalf("after Reopen the device holds %x, after a walking Reopen %x", a, b)
		}
	})
}
