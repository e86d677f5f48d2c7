package lock

import (
	"encoding/binary"
	"fmt"
	"sync"

	"smdb/benchmark/refengine/machine"
	"smdb/benchmark/refengine/obs"
	"smdb/benchmark/refengine/wal"
)

// LCB line layout:
//
//	off 0   state: empty / used / tombstone / overflow
//	off 1   holder count (this line's share)
//	off 2   waiter count (this line's share)
//	off 3   reserved
//	off 4   next line: table-slot index + 1 of the overflow continuation,
//	        0 if none (only meaningful in chained mode)
//	off 8   lock name (8 bytes); for an overflow line, the head's table
//	        slot index (for orphan detection)
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
	lcbTombstone = 2 // reusable, but probe chains continue past it
	lcbOverflow  = 3 // continuation of a chained LCB; skipped by probing
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
// into one value.
type lcb struct {
	state byte
	name  Name
	// next is the table slot of the overflow continuation, -1 if none.
	next    int
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

	mu       sync.Mutex
	stats    Stats
	suppress bool
	obs      *obs.Observer
}

// SetObserver attaches the observability layer; grants and queued waits are
// reported as lock events timestamped with the requesting node's clock.
func (s *SMManager) SetObserver(o *obs.Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// observer returns the attached observer (possibly nil).
func (s *SMManager) observer() *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// SetLogSuppressed disables (true) or re-enables (false) logical lock
// logging. Restart recovery suppresses logging while it replays surviving
// transactions' lock acquisitions, so the rebuild does not re-log what the
// log already records.
func (s *SMManager) SetLogSuppressed(b bool) {
	s.mu.Lock()
	s.suppress = b
	s.mu.Unlock()
}

// NewSMManager allocates and initializes a lock table of nLines LCB slots on
// machine m, formatting it from node 0. logs is indexed by node and may be
// nil when LogMode is LogNoLocks.
func NewSMManager(m *machine.Machine, nLines int, logs []*wal.Log, lm LogMode) (*SMManager, error) {
	if nLines < 1 {
		return nil, fmt.Errorf("lock: table must have at least 1 line, got %d", nLines)
	}
	s := &SMManager{M: m, Logs: logs, LogMode: lm, base: m.Alloc(nLines), nline: nLines}
	empty := make([]byte, m.LineSize())
	for i := 0; i < nLines; i++ {
		if err := m.Install(0, s.base+machine.LineID(i), empty); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// TableLines returns the LCB table's line range (for recovery scans).
func (s *SMManager) TableLines() (base machine.LineID, n int) { return s.base, s.nline }

// entryCap is the number of holder+waiter entries one LCB line can store.
func (s *SMManager) entryCap() int {
	return (s.M.LineSize() - lcbEntriesOff) / lcbEntryBytes
}

// Stats returns a snapshot of the counters.
func (s *SMManager) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *SMManager) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// decodeLCB parses a raw LCB line image.
func decodeLCB(raw []byte) lcb {
	var b lcb
	b.state = raw[lcbStateOff]
	b.next = int(binary.LittleEndian.Uint32(raw[lcbNextOff:])) - 1
	if b.state != lcbUsed && b.state != lcbOverflow {
		return b
	}
	nh := int(raw[lcbNHoldOff])
	nw := int(raw[lcbNWaitOff])
	b.name = Name(binary.LittleEndian.Uint64(raw[lcbNameOff:]))
	for i := 0; i < nh+nw; i++ {
		off := lcbEntriesOff + i*lcbEntryBytes
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
	return b
}

// encodeLCB builds a raw line image for b.
func encodeLCB(lineSize int, b lcb) []byte {
	raw := make([]byte, lineSize)
	raw[lcbStateOff] = b.state
	binary.LittleEndian.PutUint32(raw[lcbNextOff:], uint32(b.next+1))
	if b.state != lcbUsed && b.state != lcbOverflow {
		return raw
	}
	raw[lcbNHoldOff] = byte(len(b.holders))
	raw[lcbNWaitOff] = byte(len(b.waiters))
	binary.LittleEndian.PutUint64(raw[lcbNameOff:], uint64(b.name))
	i := 0
	for _, list := range [][]Entry{b.holders, b.waiters} {
		for _, e := range list {
			off := lcbEntriesOff + i*lcbEntryBytes
			binary.LittleEndian.PutUint64(raw[off:], uint64(e.Txn))
			raw[off+8] = byte(e.Mode)
			i++
		}
	}
	return raw
}

// readLCB reads and decodes the LCB at table slot i on behalf of node nd.
func (s *SMManager) readLCB(nd machine.NodeID, i int) (lcb, error) {
	raw, err := s.M.Read(nd, s.base+machine.LineID(i), 0, s.M.LineSize())
	if err != nil {
		return lcb{}, err
	}
	return decodeLCB(raw), nil
}

// writeLCB encodes and writes b to table slot i on behalf of node nd. The
// caller holds the slot's line lock.
func (s *SMManager) writeLCB(nd machine.NodeID, i int, b lcb) error {
	return s.M.Write(nd, s.base+machine.LineID(i), 0, encodeLCB(s.M.LineSize(), b))
}

// loadChain reads the complete LCB headed at table slot head — the head
// line plus, in chained mode, its overflow continuations — aggregated into
// one lcb value. The returned slots are the lines occupied, head first.
// The caller holds the head's line lock. An inconsistent chain is an error
// (SweepBrokenChains repairs chains after crashes, before any other use).
func (s *SMManager) loadChain(nd machine.NodeID, head int) (lcb, []int, error) {
	b, err := s.readLCB(nd, head)
	if err != nil {
		return lcb{}, nil, err
	}
	slots := []int{head}
	cur := b.next
	for cur >= 0 {
		if len(slots) > s.nline {
			return lcb{}, nil, fmt.Errorf("lock: LCB chain at slot %d cycles", head)
		}
		ov, err := s.readLCB(nd, cur)
		if err != nil {
			return lcb{}, nil, err
		}
		if ov.state != lcbOverflow || ov.name != Name(head) {
			return lcb{}, nil, fmt.Errorf("lock: LCB chain at slot %d broken at %d", head, cur)
		}
		b.holders = append(b.holders, ov.holders...)
		b.waiters = append(b.waiters, ov.waiters...)
		slots = append(slots, cur)
		cur = ov.next
	}
	return b, slots, nil
}

// storeChain writes the aggregated LCB b back, redistributing its entries
// across the head line and as many overflow lines as needed (chained mode),
// reusing the previously occupied slots, claiming new ones, and tombstoning
// leftovers. The caller holds the head's line lock. An empty b (state
// tombstone) frees the whole chain.
func (s *SMManager) storeChain(nd machine.NodeID, head int, b lcb, oldSlots []int) error {
	cap := s.entryCap()
	ents := make([]Entry, 0, len(b.holders)+len(b.waiters))
	ents = append(ents, b.holders...)
	ents = append(ents, b.waiters...)
	need := 1
	if len(ents) > 0 {
		need = (len(ents) + cap - 1) / cap
	}
	if b.state != lcbUsed {
		need = 0 // tombstoning the whole chain
	}
	slots := append([]int(nil), oldSlots...)
	for len(slots) < need {
		free, err := s.claimOverflowSlot(nd)
		if err != nil {
			return err
		}
		slots = append(slots, free)
	}
	// Write the occupied lines, head first.
	for i := 0; i < need; i++ {
		lo := i * cap
		hi := lo + cap
		if hi > len(ents) {
			hi = len(ents)
		}
		chunk := ents[lo:hi]
		line := lcb{state: lcbOverflow, name: Name(head), next: -1}
		if i == 0 {
			line = lcb{state: lcbUsed, name: b.name, next: -1}
		}
		if i+1 < need {
			line.next = slots[i+1]
		}
		for j, e := range chunk {
			if lo+j < len(b.holders) {
				line.holders = append(line.holders, e)
			} else {
				line.waiters = append(line.waiters, e)
			}
		}
		if err := s.writeLCB(nd, slots[i], line); err != nil {
			return err
		}
	}
	// Free what is no longer needed.
	for i := need; i < len(slots); i++ {
		if err := s.writeLCB(nd, slots[i], lcb{state: lcbTombstone, next: -1}); err != nil {
			return err
		}
	}
	return nil
}

// claimOverflowSlot finds and claims a free table slot for an overflow
// line, serializing competing claims through the slot's line lock.
func (s *SMManager) claimOverflowSlot(nd machine.NodeID) (int, error) {
	for i := 0; i < s.nline; i++ {
		b, err := s.readLCB(nd, i)
		if err != nil {
			return -1, err
		}
		if b.state != lcbEmpty && b.state != lcbTombstone {
			continue
		}
		ok, err := s.M.TryGetLine(nd, s.base+machine.LineID(i))
		if err != nil {
			return -1, err
		}
		if !ok {
			continue
		}
		b, err = s.readLCB(nd, i)
		if err == nil && (b.state == lcbEmpty || b.state == lcbTombstone) {
			// Reserve it; the caller overwrites it with real content
			// while still holding its head lock (no one follows a chain
			// without that lock).
			err = s.writeLCB(nd, i, lcb{state: lcbOverflow, name: Name(i), next: -1})
		}
		s.releaseSlot(nd, i)
		if err != nil {
			return -1, err
		}
		if b.state == lcbEmpty || b.state == lcbTombstone {
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
// the slot's line lock; fn returns the (possibly modified) LCB and whether
// to write it back. Linear probing with tombstones: the search continues
// past tombstones and ends at the first empty slot; insertion reuses the
// first tombstone seen. If create is false and the name is absent, fn is
// called with found=false and state lcbEmpty at the would-be slot.
func (s *SMManager) withLCB(nd machine.NodeID, name Name, create bool,
	fn func(slot int, b *lcb, found bool) (write bool, err error)) error {
retry:
	firstFree := -1
	h := s.hashSlot(name)
	for probe := 0; probe < s.nline; probe++ {
		i := (h + probe) % s.nline
		s.bump(func(st *Stats) { st.Probes++ })
		// Peek without the lock first; confirm under the lock.
		b, err := s.readLCB(nd, i)
		if err != nil {
			return err
		}
		switch {
		case b.state == lcbUsed && b.name == name:
			if err := s.M.GetLine(nd, s.base+machine.LineID(i)); err != nil {
				return err
			}
			b, err = s.readLCB(nd, i)
			if err != nil {
				s.releaseSlot(nd, i)
				return err
			}
			if b.state != lcbUsed || b.name != name {
				// Changed while we were acquiring the line lock.
				s.releaseSlot(nd, i)
				goto retry
			}
			full, slots, err := s.loadChain(nd, i)
			if err != nil {
				s.releaseSlot(nd, i)
				return err
			}
			write, err := fn(i, &full, true)
			if err == nil && write {
				err = s.storeChain(nd, i, full, slots)
			}
			s.releaseSlot(nd, i)
			return err
		case b.state == lcbTombstone:
			if firstFree < 0 {
				firstFree = i
			}
		case b.state == lcbEmpty:
			if firstFree < 0 {
				firstFree = i
			}
			// End of probe chain: the name is not in the table.
			if !create {
				var nb lcb
				_, err := fn(firstFree, &nb, false)
				return err
			}
			if err := s.M.GetLine(nd, s.base+machine.LineID(firstFree)); err != nil {
				return err
			}
			nb, err := s.readLCB(nd, firstFree)
			if err != nil {
				s.releaseSlot(nd, firstFree)
				return err
			}
			if nb.state != lcbEmpty && nb.state != lcbTombstone {
				// Another node claimed the slot meanwhile (as an LCB
				// head or an overflow line).
				s.releaseSlot(nd, firstFree)
				goto retry
			}
			nb = lcb{state: lcbUsed, name: name, next: -1}
			write, err := fn(firstFree, &nb, false)
			if err == nil && write {
				err = s.writeLCB(nd, firstFree, nb)
			}
			s.releaseSlot(nd, firstFree)
			return err
		}
	}
	// Full scan without hitting an empty slot (a table of used slots and
	// tombstones). The name is definitively absent.
	if !create {
		var nb lcb
		_, err := fn(firstFree, &nb, false)
		return err
	}
	if firstFree < 0 {
		return ErrLockTableFull
	}
	if err := s.M.GetLine(nd, s.base+machine.LineID(firstFree)); err != nil {
		return err
	}
	nb, err := s.readLCB(nd, firstFree)
	if err != nil {
		s.releaseSlot(nd, firstFree)
		return err
	}
	if nb.state != lcbEmpty && nb.state != lcbTombstone {
		s.releaseSlot(nd, firstFree)
		goto retry
	}
	nb = lcb{state: lcbUsed, name: name, next: -1}
	write, err := fn(firstFree, &nb, false)
	if err == nil && write {
		err = s.writeLCB(nd, firstFree, nb)
	}
	s.releaseSlot(nd, firstFree)
	return err
}

func (s *SMManager) releaseSlot(nd machine.NodeID, i int) {
	// Best effort; the only failure is not holding the lock, which would
	// be a bug upstream.
	_ = s.M.ReleaseLine(nd, s.base+machine.LineID(i))
}

// logLock writes a logical lock log record (volatile) for the operation, if
// the logging policy requires it (section 4.2.2: "prior to acquiring (or
// releasing) a lock on node x, a logical log record is written to the log on
// node x").
func (s *SMManager) logLock(nd machine.NodeID, typ wal.RecordType, txn wal.TxnID, name Name, mode Mode) {
	s.mu.Lock()
	suppressed := s.suppress
	s.mu.Unlock()
	if suppressed {
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
	s.bump(func(st *Stats) { st.LockLogs++ })
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
// caller polls with Holds or abandons with CancelWait). Re-acquiring a held
// lock in the same or weaker mode is a no-op grant; an upgrade from Shared
// to Exclusive is granted when txn is the sole holder and queued otherwise.
func (s *SMManager) Acquire(nd machine.NodeID, txn wal.TxnID, name Name, mode Mode) (bool, error) {
	s.logLock(nd, wal.TypeLockAcquire, txn, name, mode)
	s.bump(func(st *Stats) { st.Acquires++ })
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
		s.bump(func(st *Stats) { st.Grants++ })
	} else {
		s.bump(func(st *Stats) { st.Waits++ })
	}
	if o := s.observer(); o != nil {
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

// Holds reports whether txn currently holds name, and in which mode.
// Waiters poll this after a queued Acquire.
func (s *SMManager) Holds(nd machine.NodeID, txn wal.TxnID, name Name) (Mode, bool, error) {
	var mode Mode
	var held bool
	err := s.withLCB(nd, name, false, func(_ int, b *lcb, found bool) (bool, error) {
		if !found {
			return false, nil
		}
		for _, h := range b.holders {
			if h.Txn == txn {
				mode, held = h.Mode, true
			}
		}
		return false, nil
	})
	return mode, held, err
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
		s.promote(b)
		if len(b.holders) == 0 && len(b.waiters) == 0 {
			*b = lcb{state: lcbTombstone}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	s.logLock(nd, wal.TypeLockRelease, txn, name, mode)
	s.bump(func(st *Stats) { st.Releases++ })
	return nil
}

// CancelWait removes txn's queued request for name (used when a waiter
// times out or its transaction aborts). It is a no-op if txn is not
// waiting.
func (s *SMManager) CancelWait(nd machine.NodeID, txn wal.TxnID, name Name) error {
	canceled, wasHolder := false, false
	var mode Mode
	err := s.withLCB(nd, name, false, func(_ int, b *lcb, ok bool) (bool, error) {
		if !ok {
			return false, nil
		}
		for i, w := range b.waiters {
			if w.Txn == txn {
				canceled, mode = true, w.Mode
				for _, h := range b.holders {
					if h.Txn == txn {
						wasHolder = true // upgrade wait: the grant stays
					}
				}
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				s.promote(b)
				if len(b.holders) == 0 && len(b.waiters) == 0 {
					*b = lcb{state: lcbTombstone}
				}
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return err
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
	return nil
}

// promote moves waiters to holders while the head of the queue is
// compatible with all current holders. Upgrade waiters (already holding)
// are promoted by strengthening their holder entry.
func (s *SMManager) promote(b *lcb) {
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
			b.waiters = b.waiters[1:]
			continue
		}
		ok := true
		for _, h := range b.holders {
			if !Compatible(h.Mode, w.Mode) {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		b.holders = append(b.holders, w)
		b.waiters = b.waiters[1:]
		s.bump(func(st *Stats) { st.Promotions++ })
	}
}
