package lock

import (
	"testing"

	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

func benchSM(b *testing.B, lm LogMode) (*SMManager, *machine.Machine) {
	b.Helper()
	m := machine.New(machine.Config{Nodes: 4, Lines: 4096})
	logs := make([]*wal.Log, 4)
	for i := range logs {
		var err error
		logs[i], err = wal.NewLog(machine.NodeID(i), storage.NewLogDevice())
		if err != nil {
			b.Fatal(err)
		}
	}
	s, err := NewSMManager(m, 2048, logs, lm)
	if err != nil {
		b.Fatal(err)
	}
	return s, m
}

func BenchmarkSMAcquireReleaseLocal(b *testing.B) {
	s, _ := benchSM(b, LogNoLocks)
	txn := wal.MakeTxnID(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := NameOfKey(uint64(i % 256))
		if _, err := s.Acquire(0, txn, name, Exclusive); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(0, txn, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMAcquireReleaseMigrating alternates the acquiring node so every
// LCB line migrates between caches — the paper's sharing pattern.
func BenchmarkSMAcquireReleaseMigrating(b *testing.B) {
	s, _ := benchSM(b, LogAllLocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := machine.NodeID(i % 4)
		txn := wal.MakeTxnID(nd, uint64(i+1))
		name := NameOfKey(uint64(i % 64))
		if _, err := s.Acquire(nd, txn, name, Shared); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(nd, txn, name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDAcquireRelease(b *testing.B) {
	m := machine.New(machine.Config{Nodes: 4, Lines: 64})
	s := NewSDManager(m, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := machine.NodeID(i % 4)
		txn := wal.MakeTxnID(nd, uint64(i+1))
		name := NameOfKey(uint64(i % 256))
		if _, err := s.Acquire(nd, txn, name, Exclusive); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(nd, txn, name); err != nil {
			b.Fatal(err)
		}
	}
}
