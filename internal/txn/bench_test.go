package txn_test

import (
	"runtime"
	"sync"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// BenchmarkPrivateCommit commits 8-operation transactions (three reads, five
// writes) on records no other node touches: goroutine g drives node g, one
// goroutine per CPU up to the four nodes. Nothing on this path is shared
// between nodes by design, so run with -cpu 1,2,4 the ns/commit should hold
// and commits/s should grow with the width; a second client that adds no
// throughput means a shared line or lock is back on the path.
func BenchmarkPrivateCommit(b *testing.B) {
	const nodes, pagesPerNode, opsPerTxn = 4, 4, 8
	db, err := recovery.New(recovery.Config{
		Machine:        machine.Config{Nodes: nodes, Lines: 1 << 15},
		Protocol:       recovery.VolatileSelectiveRedo,
		LinesPerPage:   8,
		RecsPerLine:    4,
		Pages:          nodes * pagesPerNode,
		LockTableLines: 2048,
	})
	if err != nil {
		b.Fatal(err)
	}
	mgr := txn.NewManager(db)
	slots := db.Store.Layout.SlotsPerPage()
	private := make([][]heap.RID, nodes)
	for p := 0; p < nodes*pagesPerNode; p++ {
		tx, err := mgr.Begin(0)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			rid := heap.RID{Page: storage.PageID(p), Slot: uint16(s)}
			if err := tx.Insert(rid, []byte{1, byte(p), byte(s)}); err != nil {
				b.Fatal(err)
			}
			private[p/pagesPerNode] = append(private[p/pagesPerNode], rid)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Checkpoint(0); err != nil {
		b.Fatal(err)
	}
	clients := min(runtime.GOMAXPROCS(0), nodes)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		n := b.N / clients
		if g < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(nd machine.NodeID, n int) {
			defer wg.Done()
			rids := private[nd]
			for i := 0; i < n; i++ {
				tx, err := mgr.Begin(nd)
				if err != nil {
					b.Error(err)
					return
				}
				for op := 0; op < opsPerTxn; op++ {
					rid := rids[(i*opsPerTxn+op*7)%len(rids)]
					if op < 3 {
						_, err = tx.Read(rid)
					} else {
						err = tx.Write(rid, []byte{byte(i), byte(op)})
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(machine.NodeID(g), n)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
}
