package lock

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// LCB line layout:
//
//	off 0   state: empty / used / tombstone / overflow / named tombstone
//	off 1   holder count (this line's share); in a tombstone, offsets 1-7
//	        are the stamp of the write that freed the slot (see freed)
//	off 2   waiter count (this line's share)
//	off 3   reserved
//	off 4   next line: table-slot index + 1 of the overflow continuation,
//	        0 if none (only meaningful in chained mode)
//	off 8   lock name (8 bytes); for an overflow line, the head's table
//	        slot index (for orphan detection); for a named tombstone, the
//	        name of the LCB it replaced (0 in an anonymous one)
//	off 16  entries: holders first, then waiters, 9 bytes each
//	        (txn id 8 bytes + mode 1 byte)
//
// In the default (one-line) mode, an LCB spans exactly one cache line — the
// paper's recommended organization: "a node crash will either destroy all
// or none of a specific LCB". In chained mode (section 4.2.2's harder
// variant) an LCB's queues may continue into overflow lines, so a crash can
// destroy arbitrary segments; recovery then discards every surviving
// fragment of a broken chain and rebuilds the whole LCB from the logs,
// exactly as the paper recommends.
const (
	lcbStateOff   = 0
	lcbNHoldOff   = 1
	lcbNWaitOff   = 2
	lcbNextOff    = 4
	lcbNameOff    = 8
	lcbEntriesOff = 16
	lcbEntryBytes = 9
)

// LCB slot states.
const (
	lcbEmpty     = 0 // never used; probe chains end here
	lcbUsed      = 1
	lcbTombstone = 2 // reusable, name unknown: every probe chain continues past it
	lcbOverflow  = 3 // continuation of a chained LCB; skipped by probing
	// lcbNamedTombstone is a reusable freed LCB head that keeps its LCB's
	// name: the search for that name ends here, every other continues.
	lcbNamedTombstone = 4
)

// LogMode selects which lock operations are logged.
type LogMode int

const (
	// LogNoLocks logs nothing (pure FA baseline with system-reboot
	// recovery: lock state need not be reconstructible).
	LogNoLocks LogMode = iota
	// LogWriteLocks logs exclusive acquisitions and releases only, the
	// conventional policy ("typically, transaction management systems log
	// only write locks").
	LogWriteLocks
	// LogAllLocks logs shared acquisitions too — the extra overhead IFA
	// imposes (Table 1) so that LCBs destroyed with a crashed node can be
	// rebuilt for surviving transactions.
	LogAllLocks
)

// Entry is one holder or waiter in an LCB.
type Entry struct {
	Txn  wal.TxnID
	Mode Mode
}

// lcb is the decoded form of one lock-control-block line (a head or an
// overflow fragment), or — after loadChain — a whole chained LCB aggregated
// into one value. Operations edit holders and waiters in place (never by
// re-slicing from the front), so the arrays a scratch lends them keep their
// capacity from one operation to the next.
type lcb struct {
	state byte
	name  Name
	// next is the table slot of the overflow continuation, -1 if none.
	next    int
	stamp   uint64 // a tombstone's (see freed)
	holders []Entry
	waiters []Entry
}

// Stats counts SM lock manager activity.
type Stats struct {
	Acquires   int64 // acquisition requests
	Grants     int64 // immediate grants
	Waits      int64 // requests that were queued
	Releases   int64
	Promotions int64 // waiters promoted to holders on release
	LockLogs   int64 // logical lock log records written
	Probes     int64 // LCB table slots examined
}

// Sub returns the per-interval delta s - prev (see machine.Stats.Sub).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Acquires:   s.Acquires - prev.Acquires,
		Grants:     s.Grants - prev.Grants,
		Waits:      s.Waits - prev.Waits,
		Releases:   s.Releases - prev.Releases,
		Promotions: s.Promotions - prev.Promotions,
		LockLogs:   s.LockLogs - prev.LockLogs,
		Probes:     s.Probes - prev.Probes,
	}
}

// SMManager is the shared-memory lock manager: a linear-probed LCB table in
// shared memory with line-lock critical sections. By default each LCB spans
// exactly one cache line; with Chained set, LCB queues may continue into
// overflow lines (the paper's harder recovery variant — see
// SweepBrokenChains).
type SMManager struct {
	M    *machine.Machine
	Logs []*wal.Log
	// LogMode controls logical lock logging (see LogMode values).
	LogMode LogMode
	// Chained permits LCBs to span multiple cache lines. Set before first
	// use.
	Chained bool

	base  machine.LineID
	nline int

	// Nothing below is guarded by a manager-wide mutex: the table itself is
	// serialized by the machine's line locks, the counters are updated with
	// atomic adds on the acting node's block (the machine.Stats pattern), and
	// the two rarely-written switches are atomics, so lock calls on different
	// LCBs share no host lock.
	stats    []nodeStats
	suppress atomic.Bool
	obs      atomic.Pointer[obs.Observer]
	scratch  sync.Pool // of *lcbScratch
}

// SetHooks publishes the observer the lock manager reports to: grants and
// queued waits, as lock events timestamped with the requesting node's clock.
// Pass nil to detach.
func (s *SMManager) SetHooks(o *obs.Observer) { s.obs.Store(o) }

// SetLogSuppressed disables (true) or re-enables (false) logical lock
// logging. Restart recovery suppresses logging while it replays surviving
// transactions' lock acquisitions, so the rebuild does not re-log what the
// log already records.
func (s *SMManager) SetLogSuppressed(b bool) { s.suppress.Store(b) }

// NewSMManager allocates and initializes a lock table of nLines LCB slots on
// machine m, formatting it from node 0. logs is indexed by node and may be
// nil when LogMode is LogNoLocks.
func NewSMManager(m *machine.Machine, nLines int, logs []*wal.Log, lm LogMode) (*SMManager, error) {
	if nLines < 1 {
		return nil, fmt.Errorf("lock: table must have at least 1 line, got %d", nLines)
	}
	s := &SMManager{M: m, Logs: logs, LogMode: lm, base: m.Alloc(nLines), nline: nLines,
		stats: make([]nodeStats, m.Nodes())}
	empty := make([]byte, m.LineSize())
	for i := 0; i < nLines; i++ {
		if err := m.Install(0, s.base+machine.LineID(i), empty); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// entryCap is the number of holder+waiter entries one LCB line can store.
func (s *SMManager) entryCap() int {
	return (s.M.LineSize() - lcbEntriesOff) / lcbEntryBytes
}

// nodeStats is one node's counter block, padded to a cache line so lock
// calls by different nodes never write the same line.
type nodeStats struct {
	Stats
	stamps atomic.Int64 // tombstone stamps issued (freed)
}

// Stats returns a snapshot of the counters, summed over the per-node blocks.
// Each field is read atomically; like machine.Stats, the snapshot is not a
// single point in time while lock calls are in flight.
func (s *SMManager) Stats() Stats {
	var sum Stats
	for i := range s.stats {
		b := &s.stats[i]
		sum.Acquires += atomic.LoadInt64(&b.Acquires)
		sum.Grants += atomic.LoadInt64(&b.Grants)
		sum.Waits += atomic.LoadInt64(&b.Waits)
		sum.Releases += atomic.LoadInt64(&b.Releases)
		sum.Promotions += atomic.LoadInt64(&b.Promotions)
		sum.LockLogs += atomic.LoadInt64(&b.LockLogs)
		sum.Probes += atomic.LoadInt64(&b.Probes)
	}
	return sum
}

// lcbScratch is the working set of one lock-table operation, reused through
// SMManager.scratch so the operation allocates nothing: every line read lands
// in raw, every line written is encoded into raw, and b's entry arrays are
// recycled. The rule this serves: an LCB operation issues exactly the machine
// operations the paper's protocol calls for (they are simulated, counted and
// charged), and spends as little of the host as possible around them.
type lcbScratch struct {
	raw   []byte // one line image
	b     lcb    // the decoded LCB an operation works on
	slots []int  // table slots b occupies, head first (loadChain, storeChain)
	// sec is withLCB's (or ReleaseCrashed's) line section on the slot it works
	// on, closed outside one. While it is open, readSlot and writeSlot reach
	// that slot through it and every other slot after yielding it.
	sec   machine.Section
	home  [lcbEntriesOff]byte // the home slot's header, as search peeked it
	guard machine.Section     // insertAway's, on the line keeping home occupied
}

// getScratch takes a scratch from the pool (callers Put it back), sized for
// this manager's line size.
func (s *SMManager) getScratch() *lcbScratch {
	if sc, ok := s.scratch.Get().(*lcbScratch); ok {
		return sc
	}
	n := s.entryCap() + 1 // one past capacity: checkCap runs after the append
	return &lcbScratch{
		raw:   make([]byte, s.M.LineSize()),
		b:     lcb{holders: make([]Entry, 0, n), waiters: make([]Entry, 0, n)},
		slots: make([]int, 0, 4),
	}
}

// fresh resets the scratch LCB to an entry-less block in the given state.
func (sc *lcbScratch) fresh(state byte, name Name) *lcb {
	sc.b = lcb{state: state, name: name, next: -1, holders: sc.b.holders[:0], waiters: sc.b.waiters[:0]}
	return &sc.b
}

// Accessors for the header of a raw line image (see the layout above).
func rawName(raw []byte) Name { return Name(binary.LittleEndian.Uint64(raw[lcbNameOff:])) }
func rawNext(raw []byte) int  { return int(binary.LittleEndian.Uint32(raw[lcbNextOff:])) - 1 }

// decodeLCB parses the line image raw into b, reusing b's entry arrays.
func decodeLCB(raw []byte, b *lcb) {
	*b = lcb{state: raw[lcbStateOff], next: rawNext(raw), holders: b.holders[:0], waiters: b.waiters[:0]}
	switch b.state {
	case lcbTombstone, lcbNamedTombstone:
		b.name, b.next, b.stamp = rawName(raw), -1, binary.LittleEndian.Uint64(raw)>>8
	case lcbUsed, lcbOverflow:
		b.name = rawName(raw)
		appendEntries(raw, b)
	}
}

// appendEntries appends the holder and waiter entries stored in the line
// image raw to b's lists (so the fragments of a chain aggregate).
func appendEntries(raw []byte, b *lcb) {
	nh := int(raw[lcbNHoldOff])
	n := nh + int(raw[lcbNWaitOff])
	for i, off := 0, lcbEntriesOff; i < n; i, off = i+1, off+lcbEntryBytes {
		e := Entry{
			Txn:  wal.TxnID(binary.LittleEndian.Uint64(raw[off:])),
			Mode: Mode(raw[off+8]),
		}
		if i < nh {
			b.holders = append(b.holders, e)
		} else {
			b.waiters = append(b.waiters, e)
		}
	}
}

// encodeLCB overwrites the whole line image raw with b's encoding; whatever
// an earlier, longer LCB left beyond b's last entry is zeroed.
func encodeLCB(raw []byte, b *lcb) {
	if b.state == lcbTombstone || b.state == lcbNamedTombstone {
		binary.LittleEndian.PutUint64(raw, b.stamp<<8|uint64(b.state))
		binary.LittleEndian.PutUint64(raw[lcbNameOff:], uint64(b.name))
		clear(raw[lcbEntriesOff:])
		return
	}
	raw[lcbStateOff] = b.state
	raw[lcbNHoldOff], raw[lcbNWaitOff], raw[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(raw[lcbNextOff:], uint32(b.next+1))
	off := lcbNameOff
	if b.state == lcbUsed || b.state == lcbOverflow {
		raw[lcbNHoldOff] = byte(len(b.holders))
		raw[lcbNWaitOff] = byte(len(b.waiters))
		binary.LittleEndian.PutUint64(raw[lcbNameOff:], uint64(b.name))
		off = lcbEntriesOff
		for _, list := range [2][]Entry{b.holders, b.waiters} {
			for _, e := range list {
				binary.LittleEndian.PutUint64(raw[off:], uint64(e.Txn))
				raw[off+8] = byte(e.Mode)
				off += lcbEntryBytes
			}
		}
	}
	clear(raw[off:])
}

// readSlot reads the line of table slot i into sc.raw on behalf of node nd:
// as a step of sc.sec when that is a section on the slot, otherwise as a
// stand-alone read once sc.sec has yielded — a chain's continuation lines
// hash to other stripes than its head, and a goroutine holds one stripe at a
// time.
func (s *SMManager) readSlot(nd machine.NodeID, i int, sc *lcbScratch) error {
	l := s.base + machine.LineID(i)
	if sc.sec.On(l) {
		return sc.sec.Read(0, sc.raw)
	}
	sc.sec.Yield()
	return s.M.ReadInto(nd, l, 0, sc.raw)
}

// writeSlot encodes b (through sc.raw) and writes it to table slot i on
// behalf of node nd, choosing between section step and stand-alone write as
// readSlot does. The caller holds the slot's line lock, or owns the slot
// through its chain head's.
func (s *SMManager) writeSlot(nd machine.NodeID, i int, b *lcb, sc *lcbScratch) error {
	encodeLCB(sc.raw, b)
	l := s.base + machine.LineID(i)
	if sc.sec.On(l) {
		return sc.sec.Write(0, sc.raw)
	}
	sc.sec.Yield()
	return s.M.Write(nd, l, 0, sc.raw)
}

// loadChain reads the complete LCB headed at table slot head — the head
// line plus, in chained mode, its overflow continuations — aggregated into
// sc.b, with the lines occupied in sc.slots, head first. The caller holds
// the head's line lock. An inconsistent chain is an error (SweepBrokenChains
// repairs chains after crashes, before any other use). With skipIdle, an
// unchained head with no waiters is read but its entries are left undecoded
// (WaitsFor has no use for them); a chained head's waiter count is only that
// line's share, so chains are always decoded.
func (s *SMManager) loadChain(nd machine.NodeID, head int, sc *lcbScratch, skipIdle bool) error {
	if err := s.readSlot(nd, head, sc); err != nil {
		return err
	}
	sc.slots = append(sc.slots[:0], head)
	if skipIdle && sc.raw[lcbNWaitOff] == 0 && rawNext(sc.raw) < 0 {
		sc.fresh(sc.raw[lcbStateOff], rawName(sc.raw))
		return nil
	}
	b := &sc.b
	decodeLCB(sc.raw, b)
	for cur := b.next; cur >= 0; cur = rawNext(sc.raw) {
		if len(sc.slots) > s.nline {
			return fmt.Errorf("lock: LCB chain at slot %d cycles", head)
		}
		if err := s.readSlot(nd, cur, sc); err != nil {
			return err
		}
		if sc.raw[lcbStateOff] != lcbOverflow || rawName(sc.raw) != Name(head) {
			return fmt.Errorf("lock: LCB chain at slot %d broken at %d", head, cur)
		}
		appendEntries(sc.raw, b)
		sc.slots = append(sc.slots, cur)
	}
	return nil
}

// storeChain writes the aggregated LCB sc.b back, redistributing its entries
// across the head line and as many overflow lines as needed (chained mode),
// reusing the previously occupied sc.slots, claiming new ones, and
// tombstoning leftovers. The caller holds the head's line lock. A b whose
// state is not lcbUsed frees the whole chain: the head becomes a tombstone
// named b.name, the overflow lines anonymous ones.
func (s *SMManager) storeChain(nd machine.NodeID, head int, sc *lcbScratch) error {
	b := &sc.b
	per := s.entryCap()
	nh := len(b.holders)
	n := nh + len(b.waiters)
	need := 1
	if n > 0 {
		need = (n + per - 1) / per
	}
	if b.state != lcbUsed {
		need = 0 // tombstoning the whole chain
	}
	for len(sc.slots) < need {
		free, err := s.claimOverflowSlot(nd, sc)
		if err != nil {
			return err
		}
		sc.slots = append(sc.slots, free)
	}
	// Write the occupied lines, head first: line i stores entries
	// [i*per, (i+1)*per) of holders followed by waiters.
	for i := 0; i < need; i++ {
		lo, hi := i*per, min((i+1)*per, n)
		line := lcb{state: lcbOverflow, name: Name(head), next: -1}
		if i == 0 {
			line.state, line.name = lcbUsed, b.name
		}
		if i+1 < need {
			line.next = sc.slots[i+1]
		}
		line.holders = b.holders[min(lo, nh):min(hi, nh)]
		line.waiters = b.waiters[max(lo, nh)-nh : max(hi, nh)-nh]
		if err := s.writeSlot(nd, sc.slots[i], &line, sc); err != nil {
			return err
		}
	}
	// Free what is no longer needed.
	for k, slot := range sc.slots[need:] {
		free := s.freed(nd, lcbTombstone, 0)
		if need == 0 && k == 0 {
			free.state, free.name = lcbNamedTombstone, b.name
		}
		if err := s.writeSlot(nd, slot, &free, sc); err != nil {
			return err
		}
	}
	return nil
}

// freed returns the tombstone node nd overwrites a slot it frees with, in
// state lcbTombstone (name 0) or lcbNamedTombstone. Its stamp — the node and
// its count of stamps — was never used before, so a slot freed again never
// shows a header it showed before (withLCB's insert at home relies on it).
func (s *SMManager) freed(nd machine.NodeID, state byte, name Name) lcb {
	n := s.stats[nd].stamps.Add(1)
	return lcb{state: state, name: name, next: -1, stamp: uint64(nd)<<48 | uint64(n)&(1<<48-1)}
}

// rawFree reports whether a line image is a slot no LCB occupies.
func rawFree(raw []byte) bool {
	st := raw[lcbStateOff]
	return st == lcbEmpty || st == lcbTombstone || st == lcbNamedTombstone
}

// claimOverflowSlot finds and claims a free table slot for an overflow
// line, serializing competing claims through the slot's line lock. It works
// through sc.raw only; sc.b and sc.slots are the caller's.
func (s *SMManager) claimOverflowSlot(nd machine.NodeID, sc *lcbScratch) (int, error) {
	for i := 0; i < s.nline; i++ {
		if err := s.readSlot(nd, i, sc); err != nil {
			return -1, err
		}
		if !rawFree(sc.raw) {
			continue
		}
		sc.sec.Yield() // TryGetLine takes slot i's stripe
		ok, err := s.M.TryGetLine(nd, s.base+machine.LineID(i))
		if err != nil {
			return -1, err
		}
		if !ok {
			continue
		}
		err = s.readSlot(nd, i, sc)
		claimed := err == nil && rawFree(sc.raw)
		if claimed {
			// Reserve it; the caller overwrites it with real content
			// while still holding its head lock (no one follows a chain
			// without that lock).
			err = s.writeSlot(nd, i, &lcb{state: lcbOverflow, name: Name(i), next: -1}, sc)
		}
		// Best effort; the only failure is not holding the lock, which would
		// be a bug upstream.
		_ = s.M.ReleaseLine(nd, s.base+machine.LineID(i))
		if err != nil {
			return -1, err
		}
		if claimed {
			return i, nil
		}
	}
	return -1, ErrLockTableFull
}

// hashSlot returns the home slot of a name.
func (s *SMManager) hashSlot(name Name) int {
	h := uint64(name) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	return int(h % uint64(s.nline))
}

// withLCB locates the LCB for name (or the slot where it should be
// inserted), and calls fn with the slot index and decoded LCB while holding
// the slot's line lock; fn edits the LCB in place and returns whether to
// write it back. The LCB is lent from a scratch: fn must not retain it or its
// entry arrays. If create is false and the name is absent, fn is called with
// found=false and state lcbEmpty at the would-be slot, no line lock held.
//
// Linear probing with tombstones (search); insertion goes to the first free
// slot the search saw, so along a name's probe sequence its used LCB comes
// before every tombstone with its name. An insert at the home slot h is
// confirmed by finding h's header as the search peeked it: a freed slot is
// stamped anew (freed), so h stayed free, and an insert of the name away from
// home, which needs h occupied (insertAway), cannot have happened meanwhile.
// DESIGN.md §5 ("Lock table") has the argument.
//
// The machine operations are fixed: one peek read per probe; on a hit
// GetLine, a confirming read, the chain's reads, one Write per stored line,
// ReleaseLine; on an insert at home GetLine, a confirming read, Write,
// ReleaseLine. From GetLine to ReleaseLine they are the steps of one line
// section on the slot, and GetLine continues the stripe hold of the peek
// that decided on the slot if that was the search's last (machine.Peek); a
// chain's continuation lines are reached with the section yielded (readSlot).
func (s *SMManager) withLCB(nd machine.NodeID, name Name, create bool,
	fn func(slot int, b *lcb, found bool) (write bool, err error)) error {
	sc := s.getScratch()
	var probes int64
	defer func() {
		sc.sec.Yield()
		atomic.AddInt64(&s.stats[nd].Probes, probes)
		s.scratch.Put(sc)
	}()
	h := s.hashSlot(name)
retry:
	hit, free, err := s.search(nd, name, h, sc, &probes)
	switch {
	case err != nil:
		return err
	case hit >= 0:
		if err := s.M.Enter(&sc.sec, nd, s.base+machine.LineID(hit)); err != nil {
			return err
		}
		err := s.readSlot(nd, hit, sc)
		if err == nil && (sc.raw[lcbStateOff] != lcbUsed || rawName(sc.raw) != name) {
			// Changed while we were acquiring the line lock.
			sc.leave()
			goto retry
		}
		if err == nil {
			err = s.loadChain(nd, hit, sc, false)
		}
		if err == nil {
			var write bool
			write, err = fn(hit, &sc.b, true)
			if err == nil && write {
				err = s.storeChain(nd, hit, sc)
			}
		}
		sc.leave()
		return err
	case !create:
		sc.sec.Yield()
		_, err := fn(free, sc.fresh(lcbEmpty, 0), false)
		return err
	case free < 0:
		return ErrLockTableFull
	case free != h:
		again, err := s.insertAway(nd, name, h, sc, &probes, fn)
		if again {
			goto retry
		}
		return err
	}
	if err := s.M.Enter(&sc.sec, nd, s.base+machine.LineID(h)); err != nil {
		return err
	}
	err = s.readSlot(nd, h, sc)
	if err == nil && !bytes.Equal(sc.raw[:lcbEntriesOff], sc.home[:]) {
		// Taken, or taken and freed again, since the peek.
		sc.leave()
		goto retry
	}
	if err == nil {
		err = s.insert(nd, h, name, sc, fn)
	}
	sc.leave()
	return err
}

// search peeks the 16-byte headers along name's probe sequence from its home
// slot h, lock-free, until a used LCB for name (hit), an empty slot or a
// tombstone named name; it returns hit (-1 if none) and the first free slot
// seen (-1 if none), keeps h's header in sc.home and counts its probes. The
// stripe of the last slot peeked stays held in sc.sec for an Enter on it.
func (s *SMManager) search(nd machine.NodeID, name Name, h int, sc *lcbScratch, probes *int64) (hit, free int, err error) {
	hdr := sc.raw[:lcbEntriesOff]
	free = -1
	for probe := 0; probe < s.nline; probe++ {
		i := (h + probe) % s.nline
		*probes++
		if err := s.M.Peek(&sc.sec, nd, s.base+machine.LineID(i), 0, hdr); err != nil {
			return -1, -1, err
		}
		if probe == 0 {
			copy(sc.home[:], hdr)
		}
		state := hdr[lcbStateOff]
		if state == lcbUsed && rawName(hdr) == name {
			return i, free, nil
		}
		if rawFree(hdr) && free < 0 {
			free = i
		}
		if state == lcbEmpty || state == lcbNamedTombstone && rawName(hdr) == name {
			break
		}
	}
	return -1, free, nil
}

// insert fills a fresh LCB for name through fn and writes it to slot i,
// whose line lock the caller holds, if fn says so.
func (s *SMManager) insert(nd machine.NodeID, i int, name Name, sc *lcbScratch,
	fn func(slot int, b *lcb, found bool) (write bool, err error)) error {
	nb := sc.fresh(lcbUsed, name)
	write, err := fn(i, nb, false)
	if err == nil && write {
		err = s.writeSlot(nd, i, nb, sc)
	}
	return err
}

// insertAway inserts name at a free slot away from its home slot h, which the
// search found occupied. It holds the line lock that keeps h occupied — h's
// own, or its chain head's if h is an overflow line — so inserts of the name
// are serialized; checks h, searches again, and claims the free slot with
// TryGetLine (waiting with that lock held could deadlock). again reports that
// withLCB must search afresh. On top of an insert it costs a GetLine and
// ReleaseLine, a read of h and a second search.
func (s *SMManager) insertAway(nd machine.NodeID, name Name, h int, sc *lcbScratch, probes *int64,
	fn func(slot int, b *lcb, found bool) (write bool, err error)) (again bool, err error) {
	sc.sec.Yield()
	state, guard := sc.home[lcbStateOff], h
	if state == lcbOverflow {
		guard = int(rawName(sc.home[:]))
	}
	if err := s.M.Enter(&sc.guard, nd, s.base+machine.LineID(guard)); err != nil {
		return false, err
	}
	defer func() { _ = sc.guard.Leave() }()
	sc.guard.Yield()
	if err := s.readSlot(nd, h, sc); err != nil {
		return false, err
	}
	if sc.raw[lcbStateOff] != state || state == lcbUsed && rawName(sc.raw) == name ||
		state == lcbOverflow && rawName(sc.raw) != Name(guard) {
		return true, nil
	}
	hit, free, err := s.search(nd, name, h, sc, probes)
	sc.sec.Yield()
	if err != nil || hit >= 0 || free < 0 || free == h {
		return err == nil, err
	}
	l := s.base + machine.LineID(free)
	if ok, err := s.M.TryGetLine(nd, l); err != nil || !ok {
		return err == nil, err
	}
	if err = s.readSlot(nd, free, sc); err == nil && rawFree(sc.raw) {
		err = s.insert(nd, free, name, sc, fn)
	} else if err == nil {
		again = true
	}
	_ = s.M.ReleaseLine(nd, l)
	return again, err
}

// leave ends the scratch's section; best effort (a crash broke the lock).
func (sc *lcbScratch) leave() { _ = sc.sec.Leave() }

// logLock writes a logical lock log record (volatile) for the operation, if
// the logging policy requires it (section 4.2.2: "prior to acquiring (or
// releasing) a lock on node x, a logical log record is written to the log on
// node x").
func (s *SMManager) logLock(nd machine.NodeID, typ wal.RecordType, txn wal.TxnID, name Name, mode Mode) {
	if s.suppress.Load() {
		return
	}
	switch s.LogMode {
	case LogNoLocks:
		return
	case LogWriteLocks:
		if mode != Exclusive {
			return
		}
	}
	if int(nd) >= len(s.Logs) || s.Logs[nd] == nil {
		return
	}
	s.Logs[nd].Append(wal.Record{Type: typ, Txn: txn, Lock: uint64(name), Mode: uint8(mode)})
	atomic.AddInt64(&s.stats[nd].LockLogs, 1)
}

// grantable reports whether a request by txn in mode can be granted given
// the LCB state: it must be compatible with every other holder, and no
// earlier waiter may conflict (FIFO fairness).
func grantable(b *lcb, txn wal.TxnID, mode Mode) bool {
	for _, h := range b.holders {
		if h.Txn != txn && !Compatible(h.Mode, mode) {
			return false
		}
	}
	for _, w := range b.waiters {
		if w.Txn != txn && !Compatible(w.Mode, mode) {
			return false
		}
	}
	return true
}

// Acquire requests name in mode for txn running on node nd. It returns true
// if the lock was granted immediately; false if the request was queued (the
// caller polls with Look or abandons with WithdrawWait). Re-acquiring a held
// lock in the same or weaker mode is a no-op grant; an upgrade from Shared
// to Exclusive is granted when txn is the sole holder and queued otherwise.
func (s *SMManager) Acquire(nd machine.NodeID, txn wal.TxnID, name Name, mode Mode) (bool, error) {
	s.logLock(nd, wal.TypeLockAcquire, txn, name, mode)
	atomic.AddInt64(&s.stats[nd].Acquires, 1)
	granted := false
	err := s.withLCB(nd, name, true, func(_ int, b *lcb, _ bool) (bool, error) {
		// Already holding?
		for i, h := range b.holders {
			if h.Txn != txn {
				continue
			}
			if h.Mode >= mode {
				granted = true
				return false, nil
			}
			// Upgrade request.
			if len(b.holders) == 1 {
				b.holders[i].Mode = mode
				granted = true
				return true, nil
			}
			// Queue the upgrade once; a retried request must not add a
			// second waiter entry (stale duplicates would outlive the
			// transaction and resurrect it as a holder on promotion).
			for _, w := range b.waiters {
				if w.Txn == txn {
					return false, nil
				}
			}
			b.waiters = append(b.waiters, Entry{Txn: txn, Mode: mode})
			if err := s.checkCap(b); err != nil {
				return false, err
			}
			return true, nil
		}
		// Already waiting? (A retried request is not duplicated.)
		for _, w := range b.waiters {
			if w.Txn == txn {
				return false, nil
			}
		}
		if grantable(b, txn, mode) {
			b.holders = append(b.holders, Entry{Txn: txn, Mode: mode})
			granted = true
		} else {
			b.waiters = append(b.waiters, Entry{Txn: txn, Mode: mode})
		}
		if err := s.checkCap(b); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil {
		return false, err
	}
	if granted {
		atomic.AddInt64(&s.stats[nd].Grants, 1)
	} else {
		atomic.AddInt64(&s.stats[nd].Waits, 1)
	}
	if o := s.obs.Load(); o != nil {
		k := obs.KindLockAcquire
		if !granted {
			k = obs.KindLockWait
		}
		o.Instant(k, int32(nd), s.M.Clock(nd), int64(name), int64(mode))
	}
	return granted, nil
}

func (s *SMManager) checkCap(b *lcb) error {
	if s.Chained {
		return nil // overflow lines absorb any queue length
	}
	if len(b.holders)+len(b.waiters) > s.entryCap() {
		return fmt.Errorf("%w: %d entries (capacity %d)", ErrLCBFull, len(b.holders)+len(b.waiters), s.entryCap())
	}
	return nil
}

// Look reports where txn stands on name, from one visit to the LCB: the mode
// it holds name in (0 if none), whether a request of its is queued there and,
// appended to dst, the transactions that request waits for — holders of an
// incompatible mode and earlier incompatible waiters, the edges WaitsFor
// draws for it (WaitsFor is written independently: it is the oracle the
// requester's deadlock chase is tested against). Neither held nor queued means
// the lock space has no trace of txn's request: never made, or lost to
// lock-space recovery. This is how a waiter polls: a look logs nothing, counts
// as no acquisition and writes nothing.
func (s *SMManager) Look(nd machine.NodeID, txn wal.TxnID, name Name, dst []wal.TxnID) (held Mode, queued bool, blockers []wal.TxnID, err error) {
	blockers = dst
	err = s.withLCB(nd, name, false, func(_ int, b *lcb, found bool) (bool, error) {
		if !found {
			return false, nil
		}
		for _, h := range b.holders {
			if h.Txn == txn {
				held = h.Mode
			}
		}
		for wi, w := range b.waiters {
			if w.Txn != txn {
				continue
			}
			queued = true
			for _, h := range b.holders {
				if h.Txn != txn && !Compatible(h.Mode, w.Mode) {
					blockers = append(blockers, h.Txn)
				}
			}
			for _, earlier := range b.waiters[:wi] {
				if !Compatible(earlier.Mode, w.Mode) {
					blockers = append(blockers, earlier.Txn)
				}
			}
			break // a transaction queues at most one request per LCB
		}
		return false, nil
	})
	return held, queued, blockers, err
}

// Holds reports whether txn currently holds name, and in which mode.
func (s *SMManager) Holds(nd machine.NodeID, txn wal.TxnID, name Name) (Mode, bool, error) {
	held, _, _, err := s.Look(nd, txn, name, nil)
	return held, held != 0, err
}

// Release removes txn's hold on (or wait for) name and promotes newly
// compatible waiters in FIFO order. Releasing the last entry tombstones the
// LCB slot.
func (s *SMManager) Release(nd machine.NodeID, txn wal.TxnID, name Name) error {
	var mode Mode = Exclusive // logged mode; refined below
	found := false
	err := s.withLCB(nd, name, false, func(_ int, b *lcb, ok bool) (bool, error) {
		if !ok {
			return false, ErrNotHeld
		}
		for i, h := range b.holders {
			if h.Txn == txn {
				mode = h.Mode
				b.holders = append(b.holders[:i], b.holders[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			for i, w := range b.waiters {
				if w.Txn == txn {
					mode = w.Mode
					b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
					found = true
					break
				}
			}
		}
		if !found {
			return false, ErrNotHeld
		}
		s.promote(nd, b)
		if len(b.holders) == 0 && len(b.waiters) == 0 {
			b.state = lcbTombstone
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	s.logLock(nd, wal.TypeLockRelease, txn, name, mode)
	atomic.AddInt64(&s.stats[nd].Releases, 1)
	return nil
}

// WithdrawWait removes txn's queued request for name (its transaction was
// chosen as a deadlock victim, or is ending) and reports what txn is left
// with: the mode it holds name in once the request, if any, is gone (0 if it
// holds nothing); it is a no-op if txn is not waiting. A release ahead of the
// request may have granted it before the caller got round to withdrawing it;
// then there is no wait to cancel and held is the granted mode, from the same
// look at the LCB.
func (s *SMManager) WithdrawWait(nd machine.NodeID, txn wal.TxnID, name Name) (held Mode, err error) {
	canceled, wasHolder := false, false
	var mode Mode
	err = s.withLCB(nd, name, false, func(_ int, b *lcb, ok bool) (bool, error) {
		if !ok {
			return false, nil
		}
		for _, h := range b.holders {
			if h.Txn == txn {
				held, wasHolder = h.Mode, true // with a wait queued, an upgrade: the grant stays
			}
		}
		for i, w := range b.waiters {
			if w.Txn == txn {
				canceled, mode = true, w.Mode
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				s.promote(nd, b)
				if len(b.holders) == 0 && len(b.waiters) == 0 {
					b.state = lcbTombstone
				}
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	if canceled && !wasHolder {
		// A withdrawn request that was never granted is absent from the
		// transaction's held-lock bookkeeping, so no release will ever
		// follow; without a matching log record a post-crash lock replay
		// would see the bare acquire and resurrect the request for a
		// transaction that has forgotten it — leaking the entry forever
		// once the transaction ends. An upgrade withdrawal keeps its prior
		// grant (still releasable by name) and must NOT be logged: a
		// release record would erase the held mode from the replay's view.
		s.logLock(nd, wal.TypeLockRelease, txn, name, mode)
	}
	return held, nil
}

// promote applies promoteWaiters to b and counts the promotions for nd.
func (s *SMManager) promote(nd machine.NodeID, b *lcb) {
	atomic.AddInt64(&s.stats[nd].Promotions, promoteWaiters(b))
}

// promoteWaiters moves waiters to holders while the head of the queue is
// compatible with all current holders, and returns how many it moved. Upgrade
// waiters (already holding) are promoted by strengthening their holder entry,
// which is not counted.
func promoteWaiters(b *lcb) (promoted int64) {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		// Upgrade case: the waiter already holds in a weaker mode.
		isUpgrade := false
		for i, h := range b.holders {
			if h.Txn == w.Txn {
				if len(b.holders) == 1 {
					b.holders[i].Mode = w.Mode
					isUpgrade = true
				}
				break
			}
		}
		if isUpgrade {
			b.waiters = popFront(b.waiters)
			continue
		}
		for _, h := range b.holders {
			if !Compatible(h.Mode, w.Mode) {
				return promoted
			}
		}
		b.holders = append(b.holders, w)
		b.waiters = popFront(b.waiters)
		promoted++
	}
	return promoted
}

// popFront removes the first entry by shifting the rest down, so the list
// keeps its backing array (see lcb).
func popFront(list []Entry) []Entry {
	return list[:copy(list, list[1:])]
}
