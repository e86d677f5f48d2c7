// Package lock implements database locking for the shared-memory system.
//
// The primary implementation is SM locking (paper section 4.2.2): lock
// control blocks (LCBs) live directly in shared memory, sized so each LCB
// spans exactly one cache line, and every LCB operation runs inside a
// critical section built from the machine's line locks. Acquiring a lock
// thus costs a few local memory references instead of an inter-process
// message exchange — the performance argument of the paper (and of its
// companion report [20]).
//
// Because LCB lines are shared, they migrate between nodes exactly like
// record lines do, so a node crash can destroy lock state belonging to
// surviving transactions, or preserve lock state belonging to crashed ones.
// The package therefore also provides the recovery operations of section
// 4.2.2: releasing every lock held by crashed-node transactions from
// surviving LCBs, and rebuilding destroyed LCBs from the survivors' logical
// lock logs (which is why IFA requires read locks to be logged too).
//
// A shared-disk-style message-passing lock manager (SDManager) is included
// as the baseline SM locking is compared against.
package lock

import (
	"errors"
	"fmt"

	"smdb/benchmark/refengine/heap"
	"smdb/benchmark/refengine/storage"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared allows concurrent readers.
	Shared Mode = 1
	// Exclusive allows a single reader/writer.
	Exclusive Mode = 2
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Compatible reports whether a and b may be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Name identifies a lockable object. Helpers below derive names from
// records and keys; 0 is reserved (never a valid name).
type Name uint64

// NameOfRID returns the lock name of a heap record.
func NameOfRID(rid heap.RID) Name {
	return Name(1)<<62 | Name(uint32(rid.Page))<<16 | Name(rid.Slot)
}

// NameOfKey returns the lock name of a B-tree key. The tag in the top bits
// avoids collisions with RID names and the reserved zero name.
func NameOfKey(key uint64) Name {
	return Name(2)<<62 | Name(key&(1<<62-1))
}

// NameOfPage returns the lock name of a whole page.
func NameOfPage(p storage.PageID) Name {
	return Name(3)<<62 | Name(uint32(p))
}

// Errors.
var (
	// ErrLockTableFull reports that linear probing found no free LCB slot.
	ErrLockTableFull = errors.New("lock: lock table full")
	// ErrLCBFull reports that an LCB's fixed entry area overflowed.
	ErrLCBFull = errors.New("lock: lock control block full")
	// ErrNotHeld reports a release of a lock the transaction neither holds
	// nor waits for.
	ErrNotHeld = errors.New("lock: not held by transaction")
)
