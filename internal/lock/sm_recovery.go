package lock

import (
	"errors"
	"sort"

	"smdb/internal/machine"
	"smdb/internal/wal"
)

// Recovery operations for the shared-memory lock space (section 4.2.2).
// After a node crash, IFA for locking requires:
//
//  1. every lock acquired by a crashed-node transaction and stored in a
//     *surviving* LCB is released (ReleaseCrashed), and
//  2. every lock acquired by a surviving transaction whose LCB was
//     *destroyed* is restored (ReinstallLost + replaying the survivors'
//     logical lock logs through Acquire, which is idempotent).
//
// Because each LCB occupies exactly one line, a crash destroys all or none
// of it; destroyed table lines are reinstalled as tombstones so that linear
// probe chains passing through them keep finding surviving LCBs.

// LockState is the decoded, exported view of one LCB (for recovery
// verification and experiments).
type LockState struct {
	Name    Name
	Holders []Entry
	Waiters []Entry
}

// ReinstallLost reinstalls every lock-table line that is no longer resident
// in any cache as a tombstone slot, on behalf of node nd. It returns the
// number of lines reinstalled (the count of destroyed LCB slots).
func (s *SMManager) ReinstallLost(nd machine.NodeID) (int, error) {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	encodeLCB(sc.raw, &lcb{state: lcbTombstone, next: -1})
	n := 0
	for i := 0; i < s.nline; i++ {
		l := s.base + machine.LineID(i)
		if s.M.Resident(l) {
			continue
		}
		if err := s.M.Install(nd, l, sc.raw); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ReleaseCrashed scans every surviving LCB and removes holder and waiter
// entries belonging to transactions that ran on the crashed nodes, promoting
// newly compatible waiters. It returns the number of entries released.
// Non-resident table lines are skipped (ReinstallLost handles them).
func (s *SMManager) ReleaseCrashed(nd machine.NodeID, crashed []machine.NodeID) (int, error) {
	down := make(map[machine.NodeID]bool, len(crashed))
	for _, c := range crashed {
		down[c] = true
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	released := 0
	for i := 0; i < s.nline; i++ {
		l := s.base + machine.LineID(i)
		if !s.M.Resident(l) {
			continue
		}
		if err := s.M.Enter(&sc.sec, nd, l); err != nil {
			if errors.Is(err, machine.ErrLineLost) {
				continue
			}
			return released, err
		}
		err := s.readSlot(nd, i, sc)
		// Overflow lines are handled through their heads; empty and
		// tombstoned slots have nothing to release.
		if err == nil && sc.raw[lcbStateOff] == lcbUsed {
			err = s.releaseCrashedLCB(nd, i, sc, down, &released)
		}
		sc.leave()
		if err != nil {
			return released, err
		}
	}
	return released, nil
}

// releaseCrashedLCB is ReleaseCrashed's step for the LCB headed at slot
// head, whose line lock the caller holds.
func (s *SMManager) releaseCrashedLCB(nd machine.NodeID, head int, sc *lcbScratch,
	down map[machine.NodeID]bool, released *int) error {
	if err := s.loadChain(nd, head, sc, false); err != nil {
		return err
	}
	b := &sc.b
	changed := false
	b.holders, changed = dropCrashed(b.holders, down, released, changed)
	b.waiters, changed = dropCrashed(b.waiters, down, released, changed)
	if !changed {
		return nil
	}
	s.promote(nd, b)
	if len(b.holders) == 0 && len(b.waiters) == 0 {
		b.state = lcbTombstone
	}
	return s.storeChain(nd, head, sc)
}

// SweepBrokenChains repairs the chained-LCB table after a crash (no-op for
// the one-line organization): any LCB whose overflow chain was broken by
// the failure — a fragment destroyed, or a dangling continuation — is
// discarded in its entirety (all surviving fragments tombstoned), to be
// rebuilt from the surviving nodes' lock logs, "rather than attempting to
// repair only the missing portion" (section 4.2.2). Orphaned overflow
// fragments whose heads died are reclaimed too. It returns the number of
// LCBs dropped and the number of orphaned fragments reclaimed. Run it after
// ReinstallLost and before ReleaseCrashed.
func (s *SMManager) SweepBrokenChains(nd machine.NodeID) (int, int, error) {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	referenced := make(map[int]bool)
	dropped, orphans := 0, 0
	for i := 0; i < s.nline; i++ {
		if err := s.readSlot(nd, i, sc); err != nil {
			return dropped, orphans, err
		}
		if sc.raw[lcbStateOff] != lcbUsed {
			continue
		}
		// Walk the chain, remembering every fragment reached.
		sc.slots = append(sc.slots[:0], i)
		intact := true
		cur := rawNext(sc.raw)
		for cur >= 0 && len(sc.slots) <= s.nline {
			if err := s.readSlot(nd, cur, sc); err != nil {
				return dropped, orphans, err
			}
			if sc.raw[lcbStateOff] != lcbOverflow || rawName(sc.raw) != Name(i) {
				intact = false
				break
			}
			sc.slots = append(sc.slots, cur)
			cur = rawNext(sc.raw)
		}
		if intact {
			for _, p := range sc.slots[1:] {
				referenced[p] = true
			}
			continue
		}
		// Broken: drop every surviving fragment; replay will rebuild.
		dropped++
		for _, p := range sc.slots {
			if err := s.writeSlot(nd, p, &lcb{state: lcbTombstone, next: -1}, sc); err != nil {
				return dropped, orphans, err
			}
		}
	}
	// Reclaim orphaned overflow fragments (their head died or was dropped).
	for i := 0; i < s.nline; i++ {
		if err := s.readSlot(nd, i, sc); err != nil {
			return dropped, orphans, err
		}
		if sc.raw[lcbStateOff] == lcbOverflow && !referenced[i] {
			orphans++
			if err := s.writeSlot(nd, i, &lcb{state: lcbTombstone, next: -1}, sc); err != nil {
				return dropped, orphans, err
			}
		}
	}
	return dropped, orphans, nil
}

func dropCrashed(list []Entry, down map[machine.NodeID]bool, released *int, changed bool) ([]Entry, bool) {
	out := list[:0]
	for _, e := range list {
		if down[e.Txn.Node()] {
			*released++
			changed = true
			continue
		}
		out = append(out, e)
	}
	return out, changed
}

// forEachLCB calls fn with every used LCB (whole chains aggregated), read on
// behalf of node nd without line locks. Non-resident lines and broken chains
// are skipped. The LCB is lent from a scratch, valid only during the call.
// With skipIdle, fn sees no entries for an LCB nobody waits on (see
// loadChain). Each slot costs one read, each used LCB its chain's reads on
// top.
func (s *SMManager) forEachLCB(nd machine.NodeID, skipIdle bool, fn func(b *lcb)) error {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	for i := 0; i < s.nline; i++ {
		if !s.M.Resident(s.base + machine.LineID(i)) {
			continue
		}
		if err := s.readSlot(nd, i, sc); err != nil {
			if errors.Is(err, machine.ErrLineLost) {
				continue
			}
			return err
		}
		if sc.raw[lcbStateOff] != lcbUsed {
			continue
		}
		if err := s.loadChain(nd, i, sc, skipIdle); err != nil {
			continue // broken chain mid-crash; the sweep will handle it
		}
		if sc.b.state == lcbUsed { // still, on loadChain's own read of the head
			fn(&sc.b)
		}
	}
	return nil
}

// Snapshot returns the state of every used LCB (whole chains aggregated),
// read on behalf of node nd. Non-resident lines and broken chains are
// skipped. Intended for verification and experiments, not for the
// transaction path.
func (s *SMManager) Snapshot(nd machine.NodeID) ([]LockState, error) {
	var out []LockState
	err := s.forEachLCB(nd, false, func(b *lcb) {
		out = append(out, LockState{
			Name:    b.name,
			Holders: append([]Entry(nil), b.holders...),
			Waiters: append([]Entry(nil), b.waiters...),
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LostLCBCount returns how many table lines are currently non-resident
// (destroyed LCB slots awaiting ReinstallLost).
func (s *SMManager) LostLCBCount() int {
	n := 0
	for i := 0; i < s.nline; i++ {
		if !s.M.Resident(s.base + machine.LineID(i)) {
			n++
		}
	}
	return n
}

// WaitsFor builds the waits-for relation from the current lock space, read
// on behalf of node nd: txn A waits for txn B if A is queued (or requesting
// an upgrade) on an LCB where B holds an incompatible mode, or where B is an
// earlier incompatible waiter. A whole-table read like Snapshot (it issues
// exactly Snapshot's reads, but decodes only LCBs somebody waits on): the
// diagnostic behind FindDeadlock and the oracle the transaction path's
// requester-rooted chase (Look, recovery.DB.Lock) is tested against.
func (s *SMManager) WaitsFor(nd machine.NodeID) (map[wal.TxnID][]wal.TxnID, error) {
	out := make(map[wal.TxnID][]wal.TxnID)
	err := s.forEachLCB(nd, true, func(b *lcb) {
		for wi, w := range b.waiters {
			for _, h := range b.holders {
				if h.Txn != w.Txn && !Compatible(h.Mode, w.Mode) {
					out[w.Txn] = append(out[w.Txn], h.Txn)
				}
			}
			for _, earlier := range b.waiters[:wi] {
				if earlier.Txn != w.Txn && !Compatible(earlier.Mode, w.Mode) {
					out[w.Txn] = append(out[w.Txn], earlier.Txn)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FindDeadlock returns the victim of one waits-for cycle, or 0 if the lock
// space is deadlock-free: the youngest (largest-ID) transaction on the first
// cycle found in sorted traversal order. It reads the whole lock table and is
// not on the transaction path — a blocked request finds its own cycle
// (recovery.DB.Lock); this is what a wedged run prints about itself.
func (s *SMManager) FindDeadlock(nd machine.NodeID) (wal.TxnID, error) {
	g, err := s.WaitsFor(nd)
	if err != nil {
		return 0, err
	}
	roots := make([]wal.TxnID, 0, len(g))
	for t := range g {
		roots = append(roots, t)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[wal.TxnID]int, len(g))
	var stack []wal.TxnID
	var victim wal.TxnID
	var visit func(t wal.TxnID) bool
	visit = func(t wal.TxnID) bool {
		color[t] = gray
		stack = append(stack, t)
		for _, u := range g[t] {
			switch color[u] {
			case gray:
				// The cycle is the stack suffix starting at u.
				victim = u
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] > victim {
						victim = stack[i]
					}
					if stack[i] == u {
						break
					}
				}
				return true
			case white:
				if visit(u) {
					return true
				}
			}
		}
		color[t] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for _, t := range roots {
		if color[t] == white && visit(t) {
			return victim, nil
		}
	}
	return 0, nil
}
