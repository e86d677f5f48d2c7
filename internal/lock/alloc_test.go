package lock

import (
	"testing"

	"smdb/internal/wal"
)

// TestAcquireReleaseDoesNotAllocate holds the lock kernel to zero heap
// allocations per uncontended Acquire+Release on a warmed table: without lock
// logging, and with every lock logged (the IFA policy) into a log whose record
// array already has room, so what is measured is the lock manager and
// wal.Append, not the log's amortized growth.
func TestAcquireReleaseDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		lm   LogMode
	}{{"LogNoLocks", LogNoLocks}, {"LogAllLocks", LogAllLocks}} {
		t.Run(tc.name, func(t *testing.T) {
			s, logs, _ := newSM(t, 2, 64, tc.lm)
			txn := wal.MakeTxnID(0, 1)
			const runs = 1000
			if tc.lm != LogNoLocks {
				// A log keeps its record array's capacity across a crash.
				for i := 0; i < 2*(runs+2); i++ {
					logs[0].Append(wal.Record{Type: wal.TypeLockAcquire, Txn: txn})
				}
				logs[0].Crash()
				logs[0].Reopen()
			}
			name := NameOfKey(7)
			if n := testing.AllocsPerRun(runs, func() {
				if g, err := s.Acquire(0, txn, name, Exclusive); err != nil || !g {
					t.Fatalf("Acquire = %v, %v", g, err)
				}
				if err := s.Release(0, txn, name); err != nil {
					t.Fatal(err)
				}
			}); n != 0 && !raceEnabled {
				t.Errorf("Acquire+Release allocates %.1f/op", n)
			}
			if tc.lm != LogNoLocks && logs[0].Len() != 2*(runs+1) {
				t.Errorf("log holds %d records, want %d: the locks were not logged", logs[0].Len(), 2*(runs+1))
			}
		})
	}
}
