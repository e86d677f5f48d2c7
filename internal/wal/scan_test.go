package wal

import (
	"testing"

	"smdb/internal/storage"
)

// scanLog builds a log with n update records (plus a checkpoint in the
// middle) for the Scan tests.
func scanLog(tb testing.TB, n int) *Log {
	tb.Helper()
	l, err := NewLog(0, storage.NewLogDevice())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == n/2 {
			l.Append(Record{Type: TypeCheckpoint})
		}
		r := benchRecord()
		r.Page = storage.PageID(i % 8)
		l.Append(r)
	}
	return l
}

func TestScanMatchesRecords(t *testing.T) {
	l := scanLog(t, 40)
	for _, from := range []LSN{0, 1, 7, 20, 41, 42, 1000} {
		want := l.Records(from)
		var got []Record
		l.Scan(from, func(r Record) bool {
			got = append(got, r)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Scan(%d) visited %d records, Records returned %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type {
				t.Fatalf("Scan(%d) record %d = LSN %d type %d, want LSN %d type %d",
					from, i, got[i].LSN, got[i].Type, want[i].LSN, want[i].Type)
			}
		}
	}
}

func TestScanStopsEarly(t *testing.T) {
	l := scanLog(t, 40)
	seen := 0
	l.Scan(1, func(Record) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early-stopping scan visited %d records, want 5", seen)
	}
}

// TestScanZeroAlloc is the benchmark guard for the satellite requirement:
// replacing the Records full-slice copy with Scan on recovery hot paths is
// only a win if the iterator itself allocates nothing.
func TestScanZeroAlloc(t *testing.T) {
	l := scanLog(t, 256)
	var count int
	fn := func(r Record) bool {
		if r.Type == TypeUpdate {
			count++
		}
		return true
	}
	allocs := testing.AllocsPerRun(20, func() {
		count = 0
		l.Scan(1, fn)
	})
	if allocs != 0 {
		t.Errorf("Scan allocated %.1f times per full pass, want 0", allocs)
	}
	if count != 256 {
		t.Errorf("scan visited %d update records, want 256", count)
	}
}

func BenchmarkLogScan(b *testing.B) {
	l := scanLog(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		l.Scan(1, func(Record) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
	b.ReportMetric(float64(l.Len())*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogRecords is the baseline Scan replaces: a full-slice copy per
// pass.
func BenchmarkLogRecords(b *testing.B) {
	l := scanLog(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(l.Records(1)) == 0 {
			b.Fatal("empty scan")
		}
	}
	b.ReportMetric(float64(l.Len())*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
