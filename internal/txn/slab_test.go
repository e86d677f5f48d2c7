package txn_test

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// TestTxnHandlesAreDistinct: handles come from per-node slabs of 64, and
// every Begin — past several slab edges, on two nodes, a parallel
// transaction's branches among them, and four goroutines beginning on one
// node at once — gets a handle of its own.
func TestTxnHandlesAreDistinct(t *testing.T) {
	pb := newPrivateBench(t)
	seen := make(map[*txn.Txn]wal.TxnID)
	keep := func(tx *txn.Txn, nd machine.NodeID) {
		t.Helper()
		if tx.Node() != nd || tx.Done() {
			t.Fatalf("fresh handle of %v: node %d, done %v; want node %d, not done", tx.ID(), tx.Node(), tx.Done(), nd)
		}
		if prev, dup := seen[tx]; dup {
			t.Fatalf("%v got the handle of %v", tx.ID(), prev)
		}
		seen[tx] = tx.ID()
	}
	for i := 0; i < 3*64+1; i++ {
		for _, nd := range []machine.NodeID{0, 1} {
			tx, err := pb.mgr.Begin(nd)
			if err != nil {
				t.Fatal(err)
			}
			keep(tx, nd)
		}
		if i%50 == 0 {
			p, err := pb.mgr.BeginParallel(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, nd := range p.Nodes() {
				keep(p.On(nd), nd)
			}
		}
	}
	// Goroutines beginning on one node at once share its slab.
	const workers, each = 4, 100
	got := make([][]*txn.Txn, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := pb.mgr.Begin(3)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], tx)
			}
		}()
	}
	wg.Wait()
	for _, txs := range got {
		for _, tx := range txs {
			keep(tx, 3)
		}
	}
	for tx, id := range seen {
		if tx.ID() != id {
			t.Fatalf("a handle of %v now names %v", id, tx.ID())
		}
	}
}

// TestStaleHandleAnswersErrDone: a committed handle is never handed out
// again, so after 100 later transactions it still names its own and every
// operation on it is ErrDone rather than an act on a newer transaction.
func TestStaleHandleAnswersErrDone(t *testing.T) {
	pb := newPrivateBench(t)
	rid := pb.private[1][0]
	stale, err := pb.mgr.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	id := stale.ID()
	if err := stale.Write(rid, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := stale.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := pb.commit(1, i); err != nil {
			t.Fatal(err)
		}
	}
	if stale.ID() != id || !stale.Done() {
		t.Fatalf("stale handle names %v (done %v), want %v done", stale.ID(), stale.Done(), id)
	}
	if _, err := stale.Read(rid); !errors.Is(err, txn.ErrDone) {
		t.Errorf("read on a stale handle: %v, want ErrDone", err)
	}
	if err := stale.Write(rid, []byte{8}); !errors.Is(err, txn.ErrDone) {
		t.Errorf("write on a stale handle: %v, want ErrDone", err)
	}
	if err := stale.Abort(); !errors.Is(err, txn.ErrDone) {
		t.Errorf("abort on a stale handle: %v, want ErrDone", err)
	}
}

// TestReadBytesAreTheCallers: the bytes a Read returned are a copy carved
// from the node's arena that nothing writes again — not a later write to the
// record, other reads, an abort, nor the arena moving on past a 64 KiB chunk.
func TestReadBytesAreTheCallers(t *testing.T) {
	pb := newPrivateBench(t)
	rids := pb.private[2]
	type kept struct{ got, want []byte }
	var reads []kept
	read := func(tx *txn.Txn, rid heap.RID) {
		t.Helper()
		got, err := tx.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, kept{got, slices.Clone(got)})
	}
	tx, err := pb.mgr.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	read(tx, rids[0])
	if err := tx.Write(rids[0], []byte{0xee, 0xee}); err != nil {
		t.Fatal(err)
	}
	read(tx, rids[0])
	read(tx, rids[1])
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Each round carves three read copies and ten update images, a few
	// hundred bytes: 1 000 rounds cross several chunk edges.
	for i := 0; i < 1000; i++ {
		tx, err := pb.mgr.Begin(2)
		if err != nil {
			t.Fatal(err)
		}
		read(tx, rids[i%len(rids)])
		for k := 1; k <= 5; k++ {
			if err := tx.Write(rids[(i+k)%len(rids)], []byte{byte(i), byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		read(tx, rids[(i+1)%len(rids)])
		read(tx, rids[(i+7)%len(rids)])
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reads {
		if !bytes.Equal(r.got, r.want) {
			t.Fatalf("read %d changed under its caller: %x, was %x", i, r.got, r.want)
		}
	}
}
