// Package btree implements the shared-memory B+-tree of paper section
// 4.2.1: an index whose nodes are ordinary shared-memory pages, so that its
// cache lines migrate and replicate between processor nodes exactly like
// record lines do. Keys live only in leaves; leaves are chained for range
// scans.
//
// Recovery treatment follows the paper:
//
//   - Non-structural changes — key insert, delete, value update — are
//     ordinary transactional updates: they run under key locks, are logged
//     with before/after images, and (under Volatile LBM with Selective
//     Redo) carry undo tags. Deletes are logical: the entry is marked, not
//     removed, so a migrating cache line carries the original record and
//     the undo of an uncommitted delete is a mere unmark. The space of a
//     deleted entry becomes reusable only after the deleting transaction
//     commits (the slot's undo tag is null); an insert that reuses it
//     first frees it in an early-committed NTA of its own.
//
//   - Structural changes — page allocation, splits, separator insertion —
//     run as nested top-level actions, committed early (log forced at NTA
//     end) so no transaction on another node can become dependent on a
//     structural change that might roll back.
//
// Physical undo constraint: because record undo is physical (by page and
// slot), a split never relocates an entry that carries an undo tag — the
// uncommitted entry stays put and the separator is chosen around it. A
// split that cannot free space without moving tagged entries fails with
// ErrSplitBusy, and a root-leaf split requires a fully committed root.
// (ARIES/IM solves this generally with logical undo; the paper does not
// address entry relocation, and this restriction preserves its physical
// undo model.)
//
// Concurrency: tree traversals and structural changes are serialized by a
// tree-wide latch (a Go mutex). Latching strategy is orthogonal to the
// recovery protocols under study — every physical update still goes through
// the machine's coherency protocol, line locks, and the LBM policies.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// Errors.
var (
	// ErrKeyExists reports an insert of a key already present.
	ErrKeyExists = errors.New("btree: key exists")
	// ErrKeyNotFound reports a lookup/delete/update of an absent key.
	ErrKeyNotFound = errors.New("btree: key not found")
	// ErrTreeFull reports that the tree's reserved page range is exhausted.
	ErrTreeFull = errors.New("btree: out of index pages")
	// ErrSplitBusy reports a split blocked by uncommitted (tagged) entries
	// that physical undo forbids relocating; retry after they resolve.
	ErrSplitBusy = errors.New("btree: split blocked by uncommitted entries")
)

// Slot 0 of every index page is the node's metadata record:
// magic 'M' | level (0 = leaf) | nextLeaf PageID+1 (0 = none).
const (
	metaMagic   = 'M'
	metaSlot    = 0
	entryBytes  = 16 // key (8) + value/child (8)
	minRecordSz = entryBytes
)

// Tree is a B+-tree occupying a contiguous page range of a recovery.DB.
type Tree struct {
	DB *recovery.DB
	// FirstPage..FirstPage+NPages-1 is the reserved page range; FirstPage
	// is the (fixed) root.
	FirstPage storage.PageID
	NPages    int

	mu       sync.Mutex
	nextFree int // next unallocated page index within the range
}

// New reserves the page range [first, first+npages) of db for a tree. The
// root starts as an empty leaf (an unformatted page reads as one).
func New(db *recovery.DB, first storage.PageID, npages int) (*Tree, error) {
	if npages < 1 {
		return nil, fmt.Errorf("btree: need at least 1 page, got %d", npages)
	}
	if int(first)+npages > db.Store.NPages {
		return nil, fmt.Errorf("btree: page range [%d,%d) exceeds store (%d pages)", first, int(first)+npages, db.Store.NPages)
	}
	if db.Store.Layout.RecordSize() < minRecordSz {
		return nil, fmt.Errorf("btree: record size %d cannot hold a %d-byte entry", db.Store.Layout.RecordSize(), entryBytes)
	}
	if cap := db.Store.Layout.SlotsPerPage() - 1; cap < 4 {
		// Below fanout 4, preventive splitting degenerates (each split
		// leaves near-singleton nodes and the height explodes).
		return nil, fmt.Errorf("btree: node capacity %d too small (need >= 4 entries per page)", cap)
	}
	return &Tree{DB: db, FirstPage: first, NPages: npages, nextFree: 1}, nil
}

// Root returns the root page id.
func (tr *Tree) Root() storage.PageID { return tr.FirstPage }

// capacity is the number of entry slots per node (slot 0 is metadata).
func (tr *Tree) capacity() int { return tr.DB.Store.Layout.SlotsPerPage() - 1 }

// nodeMeta is the decoded metadata record.
type nodeMeta struct {
	level    int
	nextLeaf storage.PageID // NoPage if none
}

func encodeMeta(m nodeMeta) []byte {
	b := make([]byte, 6)
	b[0] = metaMagic
	b[1] = byte(m.level)
	binary.LittleEndian.PutUint32(b[2:], uint32(m.nextLeaf+1))
	return b
}

func decodeMeta(sd heap.SlotData) nodeMeta {
	if !sd.Occupied() || sd.Data[0] != metaMagic {
		// Unformatted page: an empty leaf with no successor.
		return nodeMeta{level: 0, nextLeaf: storage.NoPage}
	}
	return nodeMeta{
		level:    int(sd.Data[1]),
		nextLeaf: storage.PageID(binary.LittleEndian.Uint32(sd.Data[2:])) - 1,
	}
}

// entry is a decoded, occupied entry slot.
type entry struct {
	slot    uint16
	key     uint64
	val     uint64
	deleted bool
	tag     machine.NodeID
}

func encodeEntry(key, val uint64) []byte {
	b := make([]byte, entryBytes)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], val)
	return b
}

// readMeta reads page p's metadata on behalf of node nd.
func (tr *Tree) readMeta(nd machine.NodeID, p storage.PageID) (nodeMeta, error) {
	sd, err := tr.DB.Read(nd, heap.RID{Page: p, Slot: metaSlot})
	if err != nil {
		return nodeMeta{}, err
	}
	return decodeMeta(sd), nil
}

// readEntries returns the occupied entries of page p (slot order).
func (tr *Tree) readEntries(nd machine.NodeID, p storage.PageID) ([]entry, error) {
	var out []entry
	for s := 1; s <= tr.capacity(); s++ {
		sd, err := tr.DB.Read(nd, heap.RID{Page: p, Slot: uint16(s)})
		if err != nil {
			return nil, err
		}
		if !sd.Occupied() {
			continue
		}
		out = append(out, entry{
			slot:    uint16(s),
			key:     binary.LittleEndian.Uint64(sd.Data),
			val:     binary.LittleEndian.Uint64(sd.Data[8:]),
			deleted: sd.Deleted(),
			tag:     sd.Tag,
		})
	}
	return out, nil
}

// descend walks from the root to the leaf responsible for key, returning
// the path (root first, leaf last).
func (tr *Tree) descend(nd machine.NodeID, key uint64) ([]storage.PageID, error) {
	path := []storage.PageID{tr.FirstPage}
	p := tr.FirstPage
	for {
		meta, err := tr.readMeta(nd, p)
		if err != nil {
			return nil, err
		}
		if meta.level == 0 {
			return path, nil
		}
		ents, err := tr.readEntries(nd, p)
		if err != nil {
			return nil, err
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
		child := storage.NoPage
		for _, e := range ents {
			if e.key <= key {
				child = storage.PageID(e.val)
			}
		}
		if child == storage.NoPage {
			return nil, fmt.Errorf("btree: internal page %d has no child for key %d", p, key)
		}
		path = append(path, child)
		p = child
	}
}

// findInLeaf locates key's live (non-deleted) entry in leaf p.
func (tr *Tree) findInLeaf(nd machine.NodeID, p storage.PageID, key uint64) (entry, bool, error) {
	ents, err := tr.readEntries(nd, p)
	if err != nil {
		return entry{}, false, err
	}
	for _, e := range ents {
		if e.key == key && !e.deleted {
			return e, true, nil
		}
	}
	return entry{}, false, nil
}

// Lookup returns the value stored under key, taking a shared key lock.
func (tr *Tree) Lookup(t *txn.Txn, key uint64) (uint64, error) {
	if err := t.LockKey(key, lock.Shared); err != nil {
		return 0, err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	path, err := tr.descend(t.Node(), key)
	if err != nil {
		return 0, err
	}
	e, ok, err := tr.findInLeaf(t.Node(), path[len(path)-1], key)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrKeyNotFound, key)
	}
	return e.val, nil
}

// Insert adds (key, value) under an exclusive key lock, splitting leaves as
// early-committed structural changes when needed.
func (tr *Tree) Insert(t *txn.Txn, key, val uint64) error {
	if err := t.LockKey(key, lock.Exclusive); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	leaf, err := tr.ensureLeafForInsert(t, key)
	if err != nil {
		return err
	}
	if _, ok, err := tr.findInLeaf(t.Node(), leaf, key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	slot, prev, ok, err := tr.freeSlot(t.Node(), leaf)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("btree: leaf %d full after preventive split", leaf)
	}
	if prev.Occupied() {
		// A committed tombstone is cleared in an early-committed NTA of
		// its own, so the insert's before-image is an empty slot.
		// Otherwise a split could move the tombstone's key out of this
		// leaf's range while the insert is in flight, and the insert's
		// physical undo would put the key back here.
		nta, err := tr.DB.BeginNTA(t.Node(), t.ID())
		if err != nil {
			return err
		}
		if err := tr.clearSlot(t, nta, leaf, slot); err != nil {
			return err
		}
		if err := tr.DB.EndNTA(t.Node(), t.ID(), nta); err != nil {
			return err
		}
	}
	return tr.DB.Insert(t.Node(), t.ID(), heap.RID{Page: leaf, Slot: slot}, encodeEntry(key, val))
}

// Update changes the value stored under an existing key.
func (tr *Tree) Update(t *txn.Txn, key, val uint64) error {
	if err := t.LockKey(key, lock.Exclusive); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	path, err := tr.descend(t.Node(), key)
	if err != nil {
		return err
	}
	e, ok, err := tr.findInLeaf(t.Node(), path[len(path)-1], key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrKeyNotFound, key)
	}
	return tr.DB.Update(t.Node(), t.ID(), heap.RID{Page: path[len(path)-1], Slot: e.slot}, encodeEntry(key, val))
}

// Delete logically deletes key (mark, keep bytes) under an exclusive lock.
func (tr *Tree) Delete(t *txn.Txn, key uint64) error {
	if err := t.LockKey(key, lock.Exclusive); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	path, err := tr.descend(t.Node(), key)
	if err != nil {
		return err
	}
	e, ok, err := tr.findInLeaf(t.Node(), path[len(path)-1], key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrKeyNotFound, key)
	}
	return tr.DB.Delete(t.Node(), t.ID(), heap.RID{Page: path[len(path)-1], Slot: e.slot})
}

// Scan returns the live (key, value) pairs with from <= key <= to in key
// order, taking shared locks on each returned key. (Phantom protection —
// next-key locking — is not implemented; scans are serializable only with
// respect to the keys they return.)
func (tr *Tree) Scan(t *txn.Txn, from, to uint64) ([][2]uint64, error) {
	tr.mu.Lock()
	path, err := tr.descend(t.Node(), from)
	if err != nil {
		tr.mu.Unlock()
		return nil, err
	}
	p := path[len(path)-1]
	var found [][2]uint64
	for p != storage.NoPage {
		ents, err := tr.readEntries(t.Node(), p)
		if err != nil {
			tr.mu.Unlock()
			return nil, err
		}
		past := false
		for _, e := range ents {
			if e.deleted {
				continue
			}
			if e.key >= from && e.key <= to {
				found = append(found, [2]uint64{e.key, e.val})
			}
			if e.key > to {
				past = true
			}
		}
		if past {
			break
		}
		meta, err := tr.readMeta(t.Node(), p)
		if err != nil {
			tr.mu.Unlock()
			return nil, err
		}
		p = meta.nextLeaf
	}
	tr.mu.Unlock()
	sort.Slice(found, func(i, j int) bool { return found[i][0] < found[j][0] })
	// Lock the result set (after releasing the latch: lock waits must not
	// hold the tree).
	for _, kv := range found {
		if err := t.LockKey(kv[0], lock.Shared); err != nil {
			return nil, err
		}
	}
	return found, nil
}

// freeSlot finds a slot usable for insertion, and returns what it holds:
// nothing, or a committed tombstone (deleted with a null tag — the deleting
// transaction committed, so the space is reusable per section 4.2.1).
func (tr *Tree) freeSlot(nd machine.NodeID, p storage.PageID) (uint16, heap.SlotData, bool, error) {
	for s := 1; s <= tr.capacity(); s++ {
		sd, err := tr.DB.Read(nd, heap.RID{Page: p, Slot: uint16(s)})
		if err != nil {
			return 0, heap.SlotData{}, false, err
		}
		if !sd.Occupied() || (sd.Deleted() && sd.Tag == machine.NoNode) {
			return uint16(s), sd, true, nil
		}
	}
	return 0, heap.SlotData{}, false, nil
}
