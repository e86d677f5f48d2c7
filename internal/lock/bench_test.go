package lock

import (
	"math/rand"
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

// BenchmarkSMAcquireReleaseAged is an exclusive Acquire+Release of a random
// benchmark record name on node 0 of the benchmark's 2 048-line table after
// 12 000 eight-lock transactions have aged it (TestProbesPerAcquireStayFlat's
// workload). Besides ns/op it reports the lock-table probes (both calls') and
// the simulated machine reads per op: the figures table age used to inflate.
func BenchmarkSMAcquireReleaseAged(b *testing.B) {
	s, m := benchSM(b, LogNoLocks)
	names := benchRecordNames()
	rng := rand.New(rand.NewSource(1))
	ageTable(b, s, names, rng, 12000, 12000, func(float64) {})
	txn := wal.MakeTxnID(0, 1<<20)
	p0, r0 := s.Stats().Probes, m.Stats().Reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[rng.Intn(len(names))]
		if _, err := s.Acquire(0, txn, name, Exclusive); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(0, txn, name); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Probes-p0)/float64(b.N), "probes/op")
	b.ReportMetric(float64(m.Stats().Reads-r0)/float64(b.N), "reads/op")
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
