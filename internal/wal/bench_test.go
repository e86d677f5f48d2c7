package wal

import (
	"testing"

	"smdb/internal/storage"
)

func benchRecord() Record {
	return Record{
		Type: TypeUpdate, Txn: MakeTxnID(3, 42), Page: 7, Slot: 11,
		Version: 12345, Before: make([]byte, 32), After: make([]byte, 32),
	}
}

func BenchmarkMarshal(b *testing.B) {
	r := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := Marshal(&r); len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAppendMarshal encodes into a reused buffer, as a log force does.
func BenchmarkAppendMarshal(b *testing.B) {
	r := benchRecord()
	buf := make([]byte, 0, 2*EncodedSize(&r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = AppendMarshal(buf[:0], &r); len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	r := benchRecord()
	buf := Marshal(&r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	l, err := NewLog(0, storage.NewLogDevice())
	if err != nil {
		b.Fatal(err)
	}
	r := benchRecord()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(r)
	}
}

func BenchmarkAppendForce(b *testing.B) {
	l, err := NewLog(0, storage.NewLogDevice())
	if err != nil {
		b.Fatal(err)
	}
	r := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := l.Append(r)
		l.Force(lsn)
	}
}
