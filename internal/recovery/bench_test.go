package recovery_test

import (
	"fmt"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/txn"
)

func benchDB(b *testing.B, proto recovery.Protocol) (*recovery.DB, *txn.Manager) {
	b.Helper()
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: 4, Lines: 4096},
		Protocol:       proto,
		LinesPerPage:   8,
		RecsPerLine:    4,
		Pages:          32,
		LockTableLines: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	mgr := txn.NewManager(db)
	setup, err := mgr.Begin(0)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < db.Store.Layout.SlotsPerPage(); s++ {
		if err := setup.Insert(heap.RID{Page: 0, Slot: uint16(s)}, []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(0); err != nil {
		b.Fatal(err)
	}
	return db, mgr
}

// BenchmarkUpdatePath measures the engine-level update protocol (line
// locks, logging, tagging) per protocol — the real-time cost of the code
// path whose simulated cost E4 reports.
//
// The updates run in rounds of updateRound, each in one transaction that
// holds the record's lock. Between rounds, with the timer stopped, the
// transaction commits, a checkpoint discards its log, and a fresh one
// re-takes the lock: one transaction over all b.N updates would grow the log
// and the image arena with b.N, and ns/op would measure the heap.
func BenchmarkUpdatePath(b *testing.B) {
	for _, proto := range []recovery.Protocol{
		recovery.BaselineFA,
		recovery.VolatileSelectiveRedo,
		recovery.StableEager,
		recovery.StableTriggered,
	} {
		b.Run(proto.String(), func(b *testing.B) {
			db, mgr := benchDB(b, proto)
			rid := heap.RID{Page: 0, Slot: 3}
			var tx *txn.Txn
			begin := func() {
				var err error
				if tx, err = mgr.Begin(1); err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(rid, []byte{2}); err != nil { // take the lock once
					b.Fatal(err)
				}
			}
			begin()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%updateRound == 0 {
					b.StopTimer()
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
					if err := db.Checkpoint(0); err != nil {
						b.Fatal(err)
					}
					begin()
					b.StartTimer()
				}
				if err := db.Update(1, tx.ID(), rid, []byte{byte(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// updateRound is BenchmarkUpdatePath's updates per transaction.
const updateRound = 4096

// BenchmarkTxnCommit measures a short read-modify-write transaction end to
// end including the commit force.
func BenchmarkTxnCommit(b *testing.B) {
	_, mgr := benchDB(b, recovery.VolatileSelectiveRedo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := mgr.Begin(machine.NodeID(i % 4))
		if err != nil {
			b.Fatal(err)
		}
		rid := heap.RID{Page: 0, Slot: uint16(i % 8)}
		if _, err := tx.Read(rid); err != nil {
			b.Fatal(err)
		}
		if err := txn.Retry(func() error { return tx.Write(rid, []byte{byte(i)}) }); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover measures a full crash + restart recovery cycle with a
// populated cache and lock space.
func BenchmarkRecover(b *testing.B) {
	for _, proto := range []recovery.Protocol{recovery.VolatileRedoAll, recovery.VolatileSelectiveRedo} {
		b.Run(proto.String(), func(b *testing.B) {
			b.ReportAllocs()
			records := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, mgr := benchDB(b, proto)
				// One in-flight transaction per node.
				for n := 0; n < 4; n++ {
					tx, err := mgr.Begin(machine.NodeID(n))
					if err != nil {
						b.Fatal(err)
					}
					if err := tx.Write(heap.RID{Page: 0, Slot: uint16(n)}, []byte{byte(n + 10)}); err != nil {
						b.Fatal(err)
					}
				}
				db.Crash(3)
				for _, l := range db.Logs {
					records += l.Len() // what recovery can read: the crashed log's tail is gone
				}
				b.StartTimer()
				if _, err := db.Recover([]machine.NodeID{3}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if v := db.CheckIFA(0); len(v) != 0 {
					b.Fatal(fmt.Sprint(v))
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
