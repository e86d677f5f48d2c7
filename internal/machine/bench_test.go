package machine

import (
	"sync/atomic"
	"testing"
)

func benchMachine(b *testing.B, nodes int) (*Machine, LineID) {
	b.Helper()
	m := New(Config{Nodes: nodes, Lines: 1024})
	l := m.Alloc(1)
	if err := m.Install(0, l, make([]byte, m.LineSize())); err != nil {
		b.Fatal(err)
	}
	return m, l
}

func BenchmarkLocalRead(b *testing.B) {
	m, l := benchMachine(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(0, l, 0, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadInto is BenchmarkLocalRead through a caller-owned buffer.
func BenchmarkReadInto(b *testing.B) {
	m, l := benchMachine(b, 2)
	dst := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadInto(0, l, 0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalWrite(b *testing.B) {
	m, l := benchMachine(b, 2)
	buf := []byte{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(0, l, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrationPingPong alternates writes from two nodes so every
// write migrates the line — the H_ww1 pattern at full intensity.
func BenchmarkMigrationPingPong(b *testing.B) {
	m, l := benchMachine(b, 2)
	buf := []byte{9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(NodeID(i%2), l, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats().Migrations)/float64(b.N), "migrations/op")
}

func BenchmarkLineLockAcquireRelease(b *testing.B) {
	m, l := benchMachine(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.GetLine(0, l); err != nil {
			b.Fatal(err)
		}
		if err := m.ReleaseLine(0, l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineLockContended(b *testing.B) {
	m, l := benchMachine(b, 64)
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine impersonates a distinct node.
		nd := NodeID(next.Add(1) - 1)
		if int(nd) >= m.Nodes() {
			b.Fatalf("more goroutines than nodes (%d)", m.Nodes())
		}
		for pb.Next() {
			if err := m.GetLine(nd, l); err != nil {
				b.Fatal(err)
			}
			if err := m.ReleaseLine(nd, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCrashAndRestart(b *testing.B) {
	m := New(Config{Nodes: 4, Lines: 4096})
	base := m.Alloc(2048)
	img := make([]byte, m.LineSize())
	for i := 0; i < 2048; i++ {
		if err := m.Install(NodeID(i%4), base+LineID(i), img); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Crash(3)
		if err := m.Restart(3); err != nil {
			b.Fatal(err)
		}
		// Reinstall what died with node 3 so the next iteration crashes
		// a comparable cache.
		b.StopTimer()
		for j := 3; j < 2048; j += 4 {
			_ = m.Install(3, base+LineID(j), img)
		}
		b.StartTimer()
	}
}
