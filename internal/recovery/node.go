package recovery

import (
	"sync"
	"sync/atomic"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/wal"
)

// nodeCtl is one node's control state: its transaction table, sequence
// counter, protocol counters, pending-LSN mark and arena.
// The paper's model (sections 2 and 3.1) gives every node its own control
// state, and nothing a transaction on private data does reads or writes
// another node's block — so the blocks are padded apart and a forward-path
// operation takes only its own node's mutex.
//
// Lock order: machine stripe, then node mutex. A goroutine holding a node
// mutex never calls into the machine (Crash holds every stripe while
// noteCrash takes the crashed nodes' mutexes), and takes a second node's
// mutex only in ascending node order.
type nodeCtl struct {
	mu sync.Mutex
	// dir and seq are the transaction table. A node's k-th transaction has
	// sequence k and is never forgotten, so the table is a dense list of
	// fixed-size blocks indexed by sequence. Begin extends it under mu and
	// then publishes the new length in seq; lookups are lock-free (a reader
	// that sees seq >= k sees entry k).
	dir atomic.Pointer[[]*txnBlock]
	seq atomic.Uint64
	// settled is the length of the table's prefix that is no longer live,
	// as far as Checkpoint's low-water scan has found; guarded by mu.
	settled uint64
	// stats are this node's share of the protocol counters, guarded by mu.
	// The three force counters are bumped where no section is open — between
	// a commit's sections, and in lbmTrigger under a machine stripe — so
	// they are atomics.
	stats                              Stats
	commitForces, lbmForces, ntaForces atomic.Int64
	// branches are the node's parallel-transaction branches, in the order
	// BeginBranch made them; guarded by mu.
	branches []*txnState
	// pendingLSN is, for StableTriggered, the highest LSN an update on this
	// node left unforced, so the trigger knows how far to force. Atomic:
	// lbmTrigger reads it with a machine stripe held.
	pendingLSN atomic.Uint64
	// imgs is the arena chunk the node's updates carve their slot images
	// from, and its reads their copies.
	imgs atomic.Pointer[imgChunk]
	// The pad rounds the block up to whole cache lines and is itself wider
	// than one: the allocator puts a header in front of an array of blocks
	// (they hold pointers), so the array need not start on a line boundary,
	// and with 64 idle bytes between them two nodes' fields still never
	// share a line.
	_ [88]byte
}

// txnBlockLen is the number of entries in one block of a transaction table.
const txnBlockLen = 256

// txnBlock is one block of a transaction table, holding its entries by
// value: a node's Begins fill it front to back, one make per txnBlockLen
// transactions instead of one per Begin. An entry is never reused, and the
// block lives as long as anything points into it.
type txnBlock [txnBlockLen]txnState

// add returns the entry of the node's next transaction, zeroed, and its
// sequence number. The caller holds nc.mu, fills the entry in and then
// publishes it with nc.seq.Store(seq): lookups do not see it before.
func (nc *nodeCtl) add() (st *txnState, seq uint64) {
	i := nc.seq.Load()
	p := nc.dir.Load()
	if p == nil || i == uint64(len(*p))*txnBlockLen {
		// Only a full table gets a new directory: a header built per call
		// would escape to the heap through the Store on every Begin.
		var dir []*txnBlock
		if p != nil {
			dir = *p
		}
		dir = append(dir[:len(dir):len(dir)], new(txnBlock))
		p = &dir
		nc.dir.Store(p)
	}
	return &(*p)[i/txnBlockLen][i%txnBlockLen], i + 1
}

// lookup returns the transaction with the given sequence number, nil if the
// node has begun no such transaction. Lock-free.
func (nc *nodeCtl) lookup(seq uint64) *txnState {
	i := seq - 1 // sequence 0 wraps and fails the bound
	if i >= nc.seq.Load() {
		return nil
	}
	return &(*nc.dir.Load())[i/txnBlockLen][i%txnBlockLen]
}

// each calls fn on every transaction of the node in sequence order.
func (nc *nodeCtl) each(fn func(*txnState)) {
	for seq, n := uint64(1), nc.seq.Load(); seq <= n; seq++ {
		fn(nc.lookup(seq))
	}
}

// liveFloor returns the lowest log floor of the node's live transactions, or
// low if none is lower. Caller holds nc.mu. The scan starts past the settled
// prefix and extends it: live only ever goes from true to false, so a
// transaction found finished stays finished.
func (nc *nodeCtl) liveFloor(low wal.LSN) wal.LSN {
	n := nc.seq.Load()
	for nc.settled < n && !nc.lookup(nc.settled+1).live() {
		nc.settled++
	}
	for seq := nc.settled + 1; seq <= n; seq++ {
		if st := nc.lookup(seq); st.live() && st.logFloor < low {
			low = st.logFloor
		}
	}
	return low
}

// imgChunkBytes is the size of one image-arena chunk.
const imgChunkBytes = 64 << 10

// imgChunk is one chunk of a node's arena: a zeroed buffer handed out front
// to back and never reused. It backs the slot images of the node's log
// records and the copies Read returns, and lives as long as anything points
// into it: a log image, or a read copy a caller still holds.
type imgChunk struct {
	buf  []byte
	used atomic.Int64
}

// slotImage is SlotImage carved from the node's arena instead of allocated:
// one make per imgChunkBytes of images rather than two per update.
func (nc *nodeCtl) slotImage(layout heap.Layout, flags byte, data []byte) []byte {
	img := nc.carve(int64(1 + layout.RecordSize()))
	img[0] = flags
	copy(img[1:], data)
	return img
}

// carve hands out the next n bytes of the arena, which nothing else is ever
// handed: the caller's to write once and keep. They are capped so that an
// append to them cannot reach their neighbour. Lock-free: the offset is an
// atomic bump, and whoever finds the chunk full swaps a fresh one in.
func (nc *nodeCtl) carve(n int64) []byte {
	for {
		c := nc.imgs.Load()
		if c != nil {
			if end := c.used.Add(n); end <= int64(len(c.buf)) {
				return c.buf[end-n : end : end]
			}
		}
		fresh := &imgChunk{buf: make([]byte, max(n, imgChunkBytes))}
		fresh.used.Store(n)
		if nc.imgs.CompareAndSwap(c, fresh) {
			return fresh.buf[:n:n]
		}
	}
}

// ctl returns node nd's control block, nil if nd is not a node of this
// database.
func (db *DB) ctl(nd machine.NodeID) *nodeCtl {
	if nd < 0 || int(nd) >= len(db.nodes) {
		return nil
	}
	return &db.nodes[nd]
}

// lookup returns t's state, nil if t is unknown. Lock-free.
func (db *DB) lookup(t wal.TxnID) *txnState {
	nc := db.ctl(t.Node())
	if nc == nil {
		return nil
	}
	return nc.lookup(t.Seq())
}

// eachTxn calls fn on every transaction, node by node in ascending order and
// in sequence order within a node — so in ascending TxnID order — holding
// the node's mutex around its transactions. fn may read and write the
// mutex-guarded fields of st and nc; it must not call into the machine.
func (db *DB) eachTxn(fn func(nc *nodeCtl, st *txnState)) {
	for i := range db.nodes {
		nc := &db.nodes[i]
		nc.mu.Lock()
		nc.each(func(st *txnState) { fn(nc, st) })
		nc.mu.Unlock()
	}
}
