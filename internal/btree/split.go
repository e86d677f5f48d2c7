package btree

import (
	"fmt"
	"sort"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// Structural changes: page allocation and node splits. Splits are performed
// preventively during the insert descent — any full node on the path is
// split before descending into it — so a non-root split always finds room
// for its new separator in the (just-visited, non-full) parent. Every split
// runs as its own nested top-level action and is committed early.

// isFull reports whether page p has no usable entry slot.
func (tr *Tree) isFull(nd machine.NodeID, p storage.PageID) (bool, error) {
	_, _, ok, err := tr.freeSlot(nd, p)
	return !ok, err
}

// childFor returns the child of internal page p covering key.
func (tr *Tree) childFor(nd machine.NodeID, p storage.PageID, key uint64) (storage.PageID, error) {
	ents, err := tr.readEntries(nd, p)
	if err != nil {
		return storage.NoPage, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	child := storage.NoPage
	for _, e := range ents {
		if e.key <= key {
			child = storage.PageID(e.val)
		}
	}
	if child == storage.NoPage {
		return storage.NoPage, fmt.Errorf("btree: internal page %d has no child for key %d", p, key)
	}
	return child, nil
}

// alloc reserves the next free index page and writes its metadata record as
// part of the open NTA (space allocation is a structural change).
func (tr *Tree) alloc(t *txn.Txn, nta uint64, level int, next storage.PageID) (storage.PageID, error) {
	if tr.nextFree >= tr.NPages {
		return storage.NoPage, ErrTreeFull
	}
	p := tr.FirstPage + storage.PageID(tr.nextFree)
	tr.nextFree++
	err := tr.DB.StructuralUpdate(t.Node(), t.ID(), heap.RID{Page: p, Slot: metaSlot},
		heap.FlagOccupied, encodeMeta(nodeMeta{level: level, nextLeaf: next}), nta)
	if err != nil {
		return storage.NoPage, err
	}
	return p, nil
}

// writeMeta rewrites page p's metadata record structurally.
func (tr *Tree) writeMeta(t *txn.Txn, nta uint64, p storage.PageID, m nodeMeta) error {
	return tr.DB.StructuralUpdate(t.Node(), t.ID(), heap.RID{Page: p, Slot: metaSlot},
		heap.FlagOccupied, encodeMeta(m), nta)
}

// writeEntry writes an entry structurally into (p, slot), preserving the
// given flags (a moved tombstone keeps its deleted mark).
func (tr *Tree) writeEntry(t *txn.Txn, nta uint64, p storage.PageID, slot uint16, flags byte, key, val uint64) error {
	return tr.DB.StructuralUpdate(t.Node(), t.ID(), heap.RID{Page: p, Slot: slot}, flags, encodeEntry(key, val), nta)
}

// clearSlot frees (p, slot) structurally.
func (tr *Tree) clearSlot(t *txn.Txn, nta uint64, p storage.PageID, slot uint16) error {
	return tr.DB.StructuralUpdate(t.Node(), t.ID(), heap.RID{Page: p, Slot: slot}, 0, nil, nta)
}

// fullEntries returns every occupied entry (live and tombstoned) sorted by
// key.
func (tr *Tree) fullEntries(nd machine.NodeID, p storage.PageID) ([]entry, error) {
	ents, err := tr.readEntries(nd, p)
	if err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	return ents, nil
}

// chooseSplit picks the index i into sorted entries such that entries[i:]
// move to the new (right) node. For leaves, physical undo forbids moving
// tagged (uncommitted) entries, so the split point is pushed right past
// them; 0 and an ErrSplitBusy are returned if no point both frees space and
// respects the constraint.
func chooseSplit(ents []entry, leaf bool) (int, error) {
	mid := len(ents) / 2
	if mid == 0 {
		mid = 1
	}
	if !leaf {
		return mid, nil
	}
	for i := mid; i < len(ents); i++ {
		ok := true
		for _, e := range ents[i:] {
			if e.tag != machine.NoNode {
				ok = false
				break
			}
		}
		// The separator must exceed the largest staying key, which holds
		// automatically for distinct keys.
		if ok {
			return i, nil
		}
	}
	return 0, ErrSplitBusy
}

// splitRoot splits the (full) root in place: its entries move to two fresh
// children and the root becomes (or stays) an internal node one level up.
// Because every root entry relocates, a leaf root may not contain any
// uncommitted entry.
func (tr *Tree) splitRoot(t *txn.Txn) error {
	nd := t.Node()
	meta, err := tr.readMeta(nd, tr.FirstPage)
	if err != nil {
		return err
	}
	ents, err := tr.fullEntries(nd, tr.FirstPage)
	if err != nil {
		return err
	}
	if meta.level == 0 {
		for _, e := range ents {
			if e.tag != machine.NoNode {
				return ErrSplitBusy
			}
		}
	}
	if len(ents) < 2 {
		return fmt.Errorf("btree: cannot split root with %d entries", len(ents))
	}
	mid := len(ents) / 2
	sep := ents[mid].key

	nta, err := tr.DB.BeginNTA(nd, t.ID())
	if err != nil {
		return err
	}
	right, err := tr.alloc(t, nta, meta.level, meta.nextLeaf)
	if err != nil {
		return err
	}
	leftNext := storage.NoPage
	if meta.level == 0 {
		leftNext = right
	}
	left, err := tr.alloc(t, nta, meta.level, leftNext)
	if err != nil {
		return err
	}
	for i, e := range ents {
		dst, slot := left, uint16(i+1)
		if i >= mid {
			dst, slot = right, uint16(i-mid+1)
		}
		flags := byte(heap.FlagOccupied)
		if e.deleted {
			flags |= heap.FlagDeleted
		}
		if err := tr.writeEntry(t, nta, dst, slot, flags, e.key, e.val); err != nil {
			return err
		}
		if err := tr.clearSlot(t, nta, tr.FirstPage, e.slot); err != nil {
			return err
		}
	}
	if err := tr.writeMeta(t, nta, tr.FirstPage, nodeMeta{level: meta.level + 1, nextLeaf: storage.NoPage}); err != nil {
		return err
	}
	if err := tr.writeEntry(t, nta, tr.FirstPage, 1, heap.FlagOccupied, 0, uint64(left)); err != nil {
		return err
	}
	if err := tr.writeEntry(t, nta, tr.FirstPage, 2, heap.FlagOccupied, sep, uint64(right)); err != nil {
		return err
	}
	return tr.DB.EndNTA(nd, t.ID(), nta)
}

// splitNonRoot splits full page p, whose parent is guaranteed non-full by
// the preventive descent, moving the upper entries to a new sibling and
// publishing the separator in the parent.
func (tr *Tree) splitNonRoot(t *txn.Txn, p, parent storage.PageID) error {
	nd := t.Node()
	meta, err := tr.readMeta(nd, p)
	if err != nil {
		return err
	}
	ents, err := tr.fullEntries(nd, p)
	if err != nil {
		return err
	}
	i, err := chooseSplit(ents, meta.level == 0)
	if err != nil {
		return err
	}
	sep := ents[i].key

	nta, err := tr.DB.BeginNTA(nd, t.ID())
	if err != nil {
		return err
	}
	newP, err := tr.alloc(t, nta, meta.level, meta.nextLeaf)
	if err != nil {
		return err
	}
	for j, e := range ents[i:] {
		flags := byte(heap.FlagOccupied)
		if e.deleted {
			flags |= heap.FlagDeleted
		}
		if err := tr.writeEntry(t, nta, newP, uint16(j+1), flags, e.key, e.val); err != nil {
			return err
		}
		if err := tr.clearSlot(t, nta, p, e.slot); err != nil {
			return err
		}
	}
	if meta.level == 0 {
		if err := tr.writeMeta(t, nta, p, nodeMeta{level: 0, nextLeaf: newP}); err != nil {
			return err
		}
	}
	// Publish the separator in the parent (non-full by invariant; entries
	// are unsorted in storage, so any free slot works).
	slot, _, ok, err := tr.freeSlot(nd, parent)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("btree: parent %d full during split of %d (descent invariant broken)", parent, p)
	}
	if err := tr.writeEntry(t, nta, parent, slot, heap.FlagOccupied, sep, uint64(newP)); err != nil {
		return err
	}
	return tr.DB.EndNTA(nd, t.ID(), nta)
}

// ensureLeafForInsert descends to the leaf covering key, preventively
// splitting every full node on the way, and returns a leaf guaranteed to
// have a usable slot (or ErrSplitBusy / ErrTreeFull).
func (tr *Tree) ensureLeafForInsert(t *txn.Txn, key uint64) (storage.PageID, error) {
	nd := t.Node()
	for restart := 0; restart < tr.NPages+2; restart++ {
		p := tr.FirstPage
		parent := storage.NoPage
		for {
			full, err := tr.isFull(nd, p)
			if err != nil {
				return storage.NoPage, err
			}
			if full {
				if parent == storage.NoPage {
					if err := tr.splitRoot(t); err != nil {
						return storage.NoPage, err
					}
					break // restart from the (now internal) root
				}
				if err := tr.splitNonRoot(t, p, parent); err != nil {
					return storage.NoPage, err
				}
				// Re-route from the parent: the key may now belong in
				// the new sibling.
				p, err = tr.childFor(nd, parent, key)
				if err != nil {
					return storage.NoPage, err
				}
				continue
			}
			meta, err := tr.readMeta(nd, p)
			if err != nil {
				return storage.NoPage, err
			}
			if meta.level == 0 {
				return p, nil
			}
			parent = p
			p, err = tr.childFor(nd, p, key)
			if err != nil {
				return storage.NoPage, err
			}
		}
	}
	return storage.NoPage, fmt.Errorf("btree: descent did not converge for key %d", key)
}
