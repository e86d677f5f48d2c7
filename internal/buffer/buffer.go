// Package buffer implements the no-force/steal buffer manager of the
// shared-memory database (paper section 2). Pages live in shared-memory
// frames managed by internal/heap; this package moves them between the
// frames and the stable database:
//
//   - no-force: committing a transaction does not write its pages to disk,
//     so redo information must survive for committed transactions;
//   - steal: a dirty page may be written to disk while it still carries
//     uncommitted updates, provided the write-ahead-log rule holds.
//
// WAL enforcement follows section 6: a shared-memory table records, per
// page, the last update LSN of every node that updated it; a page may go to
// the stable database only after each such node has forced its log through
// that LSN. (The table is written only by the local node and is simply
// re-initialized for a node that crashes.) Each node's column of it lives on
// cache lines of its own, as the node's fetch counter does, so a node
// updating its own pages writes nothing another node writes: the update
// path (NoteUpdate, then MarkDirty on an already-dirty page) takes no lock.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/storage"
	"smdb/internal/wal"
)

// Stats counts buffer manager activity.
type Stats struct {
	// Fetches is the number of Fetch calls; DiskFetches the subset that
	// performed disk I/O; Formats the subset that created fresh pages.
	Fetches, DiskFetches, Formats int64
	// Flushes is pages written to the stable database; Steals the subset
	// that carried uncommitted updates (an undo tag was present).
	Flushes, Steals int64
	// WALForces is log forces performed to satisfy the WAL rule before a
	// flush.
	WALForces int64
	// IORetries is transient disk errors retried (and outlasted) by page
	// reads and writes.
	IORetries int64
}

// Sub returns the per-interval delta s - prev (see machine.Stats.Sub).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Fetches:     s.Fetches - prev.Fetches,
		DiskFetches: s.DiskFetches - prev.DiskFetches,
		Formats:     s.Formats - prev.Formats,
		Flushes:     s.Flushes - prev.Flushes,
		Steals:      s.Steals - prev.Steals,
		WALForces:   s.WALForces - prev.WALForces,
		IORetries:   s.IORetries - prev.IORetries,
	}
}

// Manager is the buffer manager. It is safe for concurrent use.
type Manager struct {
	Store *heap.Store
	Disk  *storage.Disk
	// Logs holds each node's write-ahead log, indexed by node ID, for WAL
	// enforcement on flush.
	Logs []*wal.Log
	// logForceCost prices one physical log force (the DB's price: NVRAM or
	// rotational disk, section 7's discussion of making stable logging
	// cheap).
	logForceCost func() int64

	// mu guards stats and serializes each page's clean-to-dirty and
	// dirty-to-clean transitions with their observer events, so a page
	// turning dirty right after a flush reports it after the flush.
	mu    sync.Mutex
	stats Stats // Fetches is kept in cols
	// dirty holds one bit per page, set while the page diverges from its
	// disk image: once a page is dirty, MarkDirty is one atomic load.
	dirty []atomic.Bool
	// cols is, by node, every word the update path writes: the node's
	// Fetch count and its column of the (page, LSN) table (see newCols).
	// The slice itself is read-only after NewManager.
	cols []nodeCol

	// bringIn serializes, per page (striped), the Fetch calls that found the
	// page not resident. Held across the format or disk read and the
	// installs; never taken with mu or a machine stripe held. A disk read
	// lands in the stripe's page of scratch, which the installs copy from.
	bringIn [64]sync.Mutex
	scratch [64][]byte

	// obs is the attached observer (see SetHooks), nil when detached.
	obs atomic.Pointer[obs.Observer]
	// fetchHook, when non-nil, is called at every Fetch entry with no
	// manager state held. The chaos schedule recorder uses it as a
	// scheduling point: a fetch is where a crash-lost page is faulted back
	// in from disk, i.e. the hazard window of the stale-reinstall race.
	fetchHook atomic.Pointer[func(machine.NodeID, storage.PageID)]
}

// nodeCol is one node's share of the manager's per-update state: its Fetch
// count and its column of the (page, LSN) table, both in the node's segment
// of one allocation (see newCols). Only node nd writes them on the forward
// path (FlushPage clears column entries by compare-and-swap, DropNode while
// nd is down).
type nodeCol struct {
	// fetches counts the node's Fetch calls: every record operation starts
	// with one.
	fetches *atomic.Uint64
	// lsn[p] is the LSN of nd's last logged update to page p, 0 if none
	// since p was last flushed. Raised by an atomic max.
	lsn []atomic.Uint64
}

// linePad is a 64-byte cache line's worth of state words.
const linePad = 64 / 8

// newCols lays out the per-node state of nodes nodes over pages pages in
// one allocation: each node's segment (its fetch count, then one LSN per
// page) is fenced from the next, and the first and last from whatever the
// allocator puts beside them, by a line of unused words. No two nodes'
// words can then share a cache line, whatever the allocation's alignment.
func newCols(nodes, pages int) []nodeCol {
	seg := 1 + pages + linePad
	state := make([]atomic.Uint64, linePad+nodes*seg)
	cols := make([]nodeCol, nodes)
	for nd := range cols {
		base := linePad + nd*seg
		cols[nd] = nodeCol{fetches: &state[base], lsn: state[base+1 : base+1+pages : base+1+pages]}
	}
	return cols
}

// SetFetchHook attaches (or, with nil, detaches) the Fetch-entry callback.
// The hook may block (the schedule replayer parks callers on it); it is
// invoked outside the manager mutex.
func (b *Manager) SetFetchHook(f func(machine.NodeID, storage.PageID)) {
	if f == nil {
		b.fetchHook.Store(nil)
		return
	}
	b.fetchHook.Store(&f)
}

// SetHooks publishes the observer the manager reports to: disk fetches with
// their cost, flushes and WAL-rule log forces against the requesting node's
// clock, and each page's clean-to-dirty transition. Pass nil to detach.
func (b *Manager) SetHooks(o *obs.Observer) { b.obs.Store(o) }

// NewManager creates a buffer manager over the given store, disk, and
// per-node logs; logForceCost prices the log forces the WAL rule makes.
func NewManager(store *heap.Store, disk *storage.Disk, logs []*wal.Log, logForceCost func() int64) *Manager {
	if disk.PageSize() < store.Layout.PageBytes() {
		panic(fmt.Sprintf("buffer: disk page size %d < heap page size %d", disk.PageSize(), store.Layout.PageBytes()))
	}
	b := &Manager{
		Store: store,
		Disk:  disk,
		Logs:  logs,
		dirty: make([]atomic.Bool, store.NPages),
		cols:  newCols(store.M.Nodes(), store.NPages),

		logForceCost: logForceCost,
	}
	for i := range b.scratch {
		b.scratch[i] = make([]byte, disk.PageSize())
	}
	return b
}

// Stats returns a snapshot of the counters.
func (b *Manager) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	for i := range b.cols {
		s.Fetches += int64(b.cols[i].fetches.Load())
	}
	return s
}

// Fetch ensures every line of page p is resident in shared memory, on
// behalf of node nd. A page never written to disk is formatted fresh; a
// partially lost page has only its missing lines reinstalled from the disk
// image, preserving newer surviving cached lines. A node outside the machine
// is down to it, as to machine.Machine.Alive.
func (b *Manager) Fetch(nd machine.NodeID, p storage.PageID) error {
	if nd < 0 || int(nd) >= len(b.cols) {
		return fmt.Errorf("buffer: fetch of page %d by node %d: %w", p, nd, machine.ErrNodeDown)
	}
	b.cols[nd].fetches.Add(1)
	if hook := b.fetchHook.Load(); hook != nil {
		(*hook)(nd, p)
	}
	if b.Store.ResidentPage(p) {
		return nil
	}
	// One fetcher at a time brings a page in: two nodes formatting or
	// reinstalling it side by side each take the other's half-done work for
	// lost lines and install over records the other has meanwhile updated
	// (or fail on a line the other has line-locked).
	stripe := uint(p) % uint(len(b.bringIn))
	mu := &b.bringIn[stripe]
	mu.Lock()
	defer mu.Unlock()
	if b.Store.ResidentPage(p) {
		return nil
	}
	if !b.Disk.Exists(p) {
		b.mu.Lock()
		b.stats.Formats++
		b.mu.Unlock()
		return b.Store.FormatPage(nd, p)
	}
	img := b.scratch[stripe]
	if err := b.ReadPage(nd, p, img); err != nil {
		return err
	}
	cost := b.Store.M.Config().Cost.DiskRead
	b.Store.M.AdvanceClock(nd, cost)
	b.mu.Lock()
	b.stats.DiskFetches++
	b.mu.Unlock()
	if o := b.obs.Load(); o != nil {
		o.Record(obs.Event{Kind: obs.KindPageFetch, Node: int32(nd), Sim: b.Store.M.Clock(nd), A: int64(p), B: 1, Dur: cost})
	}
	return b.Store.InstallImage(nd, p, img[:b.Store.Layout.PageBytes()], true)
}

// MarkDirty records that page p diverges from its disk image. On a page
// already dirty it only reads its bit.
func (b *Manager) MarkDirty(p storage.PageID) {
	if b.dirty[p].Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dirty[p].Swap(true) {
		return
	}
	if o := b.obs.Load(); o != nil {
		o.Instant(obs.KindPageDirty, obs.SystemNode, b.Store.M.MaxClock(), int64(p), 0)
	}
}

// Dirty reports whether page p is marked dirty.
func (b *Manager) Dirty(p storage.PageID) bool {
	return b.dirty[p].Load()
}

// DirtyPages returns the dirty page set in ascending page order.
func (b *Manager) DirtyPages() []storage.PageID {
	n := 0
	for p := range b.dirty {
		if b.dirty[p].Load() {
			n++
		}
	}
	out := make([]storage.PageID, 0, n)
	for p := range b.dirty {
		if b.dirty[p].Load() {
			out = append(out, storage.PageID(p))
		}
	}
	return out
}

// NoteUpdate records, in node nd's column of the (page, LSN) table, that
// nd's log record lsn updated page p. FlushPage consults it to enforce WAL.
// It takes no lock: only nd raises its own entries.
func (b *Manager) NoteUpdate(p storage.PageID, nd machine.NodeID, lsn wal.LSN) {
	if int(nd) >= len(b.Logs) || b.Logs[nd] == nil {
		return // no log to force: FlushPage has nothing to enforce for nd
	}
	e := &b.cols[nd].lsn[p]
	for {
		cur := e.Load()
		if uint64(lsn) <= cur || e.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// FlushPage writes page p to the stable database on behalf of node nd,
// first enforcing the WAL rule: every node that updated p forces its log
// through its last update to p. Flushing a page with an undo-tagged record
// is a steal (an uncommitted update reaches disk); its undo record is made
// stable by the same WAL forces. FlushPage fails with machine.ErrLineLost
// if part of the page was destroyed by a crash and not yet recovered.
func (b *Manager) FlushPage(nd machine.NodeID, p storage.PageID) error {
	// WAL rule first (the order is the point of the protocol). pending is
	// the snapshot the forces cover; the clear below removes exactly it.
	var pending [64]uint64 // machine.Config allows at most 64 nodes
	for n := range b.cols {
		lsn := b.cols[n].lsn[p].Load()
		if lsn == 0 {
			continue
		}
		pending[n] = lsn
		if _, forced := b.Logs[n].Force(wal.LSN(lsn)); forced {
			cost := b.logForceCost()
			b.Store.M.AdvanceClock(nd, cost)
			b.mu.Lock()
			b.stats.WALForces++
			b.mu.Unlock()
			b.obs.Load().ObserveLogForce(cost)
		}
	}

	img, err := b.Store.PageImage(nd, p)
	if err != nil {
		return fmt.Errorf("buffer: flushing page %d: %w", p, err)
	}
	steal := pageHasTag(b.Store.Layout, img)
	// Tags never reach disk: the WAL forces above made every stolen
	// update's undo record stable, which is what recovery uses for
	// on-disk uncommitted data (tags only ever describe cached lines).
	heap.StripTags(b.Store.Layout, img)
	if err := b.writePage(nd, p, img); err != nil {
		return err
	}
	b.Store.M.AdvanceClock(nd, b.Store.M.Config().Cost.DiskWrite)
	// Clear what the forces covered. An entry that moved since the
	// snapshot is an update noted meanwhile: its LSN survives, and so does
	// the page's dirty bit, for the next flush to enforce and write.
	newer := false
	for n := range b.cols {
		e := &b.cols[n].lsn[p]
		if pending[n] != 0 && e.CompareAndSwap(pending[n], 0) {
			continue
		}
		if e.Load() != 0 {
			newer = true
		}
	}
	b.mu.Lock()
	b.stats.Flushes++
	if steal {
		b.stats.Steals++
	}
	if !newer {
		b.dirty[p].Store(false)
	}
	// Under mu: a page turning dirty again right after reports it after this.
	if o := b.obs.Load(); o != nil {
		var stole int64
		if steal {
			stole = 1
		}
		o.Instant(obs.KindPageFlush, int32(nd), b.Store.M.Clock(nd), int64(p), stole)
	}
	b.mu.Unlock()
	return nil
}

// noteRetry charges simulated backoff to nd and counts one retried attempt.
func (b *Manager) noteRetry(nd machine.NodeID, p storage.PageID, attempt int, backoff int64) {
	b.Store.M.AdvanceClock(nd, backoff)
	b.mu.Lock()
	b.stats.IORetries++
	b.mu.Unlock()
	if o := b.obs.Load(); o != nil {
		o.Instant(obs.KindIORetry, int32(nd), b.Store.M.Clock(nd), int64(p), int64(attempt))
	}
}

// ReadPage copies page p from the stable database into dst (see
// storage.Disk.ReadPage) on nd's behalf, retrying transient errors under
// storage.DefaultRetry with exponential simulated backoff.
func (b *Manager) ReadPage(nd machine.NodeID, p storage.PageID, dst []byte) error {
	return storage.DefaultRetry.Do(func() error { return b.Disk.ReadPage(p, dst) },
		func(attempt int, backoff int64) { b.noteRetry(nd, p, attempt, backoff) })
}

// writePage writes page p to the stable database with the same retry policy.
func (b *Manager) writePage(nd machine.NodeID, p storage.PageID, img []byte) error {
	return storage.DefaultRetry.Do(func() error { return b.Disk.WritePage(p, img) },
		func(attempt int, backoff int64) { b.noteRetry(nd, p, attempt, backoff) })
}

// pageHasTag reports whether any slot in the page image carries an undo tag
// (i.e. an uncommitted update).
func pageHasTag(layout heap.Layout, img []byte) bool {
	for line := 1; line < layout.LinesPerPage; line++ {
		lineImg := img[line*layout.LineSize : (line+1)*layout.LineSize]
		for s := 0; s < layout.RecsPerLine; s++ {
			if sd := heap.DecodeSlotFromLine(layout, lineImg, s); sd.Tag != machine.NoNode {
				return true
			}
		}
	}
	return false
}

// EvictPage flushes page p and then discards every cached copy of its
// lines, freeing the frame contents (the page survives only on disk). This
// is the steal path under memory pressure.
func (b *Manager) EvictPage(nd machine.NodeID, p storage.PageID) error {
	if err := b.FlushPage(nd, p); err != nil {
		return err
	}
	base := b.Store.PageBase(p)
	for i := 0; i < b.Store.Layout.LinesPerPage; i++ {
		l := base + machine.LineID(i)
		for _, h := range b.Store.M.Holders(l) {
			if err := b.Store.M.Discard(h, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushAll flushes every dirty page (checkpoint support).
func (b *Manager) FlushAll(nd machine.NodeID) error {
	for _, p := range b.DirtyPages() {
		if err := b.FlushPage(nd, p); err != nil {
			return err
		}
	}
	return nil
}

// DropNode re-initializes the crashed node's column of the (page, LSN)
// table: its volatile log tail is gone, so there is nothing left to force.
// (Its stable records remain on its log device for recovery.)
func (b *Manager) DropNode(nd machine.NodeID) {
	col := b.cols[nd].lsn
	for p := range col {
		col[p].Store(0)
	}
}

// PendingWAL returns the nodes (and LSNs) that would have to force their
// logs before page p could be flushed. Exposed for tests and experiments.
func (b *Manager) PendingWAL(p storage.PageID) map[machine.NodeID]wal.LSN {
	out := make(map[machine.NodeID]wal.LSN)
	for n := range b.cols {
		lsn := wal.LSN(b.cols[n].lsn[p].Load())
		if lsn != 0 && b.Logs[n].ForcedLSN() < lsn {
			out[machine.NodeID(n)] = lsn
		}
	}
	return out
}
