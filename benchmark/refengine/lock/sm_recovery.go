package lock

import (
	"errors"
	"sort"

	"smdb/benchmark/refengine/machine"
	"smdb/benchmark/refengine/wal"
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
	img := encodeLCB(s.M.LineSize(), lcb{state: lcbTombstone, next: -1})
	n := 0
	for i := 0; i < s.nline; i++ {
		l := s.base + machine.LineID(i)
		if s.M.Resident(l) {
			continue
		}
		if err := s.M.Install(nd, l, img); err != nil {
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
	released := 0
	for i := 0; i < s.nline; i++ {
		l := s.base + machine.LineID(i)
		if !s.M.Resident(l) {
			continue
		}
		if err := s.M.GetLine(nd, l); err != nil {
			if errors.Is(err, machine.ErrLineLost) {
				continue
			}
			return released, err
		}
		b, err := s.readLCB(nd, i)
		if err != nil {
			s.releaseSlot(nd, i)
			return released, err
		}
		if b.state != lcbUsed {
			// Overflow lines are handled through their heads; empty and
			// tombstoned slots have nothing to release.
			s.releaseSlot(nd, i)
			continue
		}
		full, slots, err := s.loadChain(nd, i)
		if err != nil {
			s.releaseSlot(nd, i)
			return released, err
		}
		changed := false
		full.holders, changed = dropCrashed(full.holders, down, &released, changed)
		full.waiters, changed = dropCrashed(full.waiters, down, &released, changed)
		if changed {
			s.promote(&full)
			if len(full.holders) == 0 && len(full.waiters) == 0 {
				full.state = lcbTombstone
			}
			if err := s.storeChain(nd, i, full, slots); err != nil {
				s.releaseSlot(nd, i)
				return released, err
			}
		}
		s.releaseSlot(nd, i)
	}
	return released, nil
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
	referenced := make(map[int]bool)
	dropped, orphans := 0, 0
	for i := 0; i < s.nline; i++ {
		b, err := s.readLCB(nd, i)
		if err != nil {
			return dropped, orphans, err
		}
		if b.state != lcbUsed {
			continue
		}
		// Walk the chain, remembering every fragment reached.
		parts := []int{i}
		intact := true
		cur := b.next
		for cur >= 0 && len(parts) <= s.nline {
			ov, err := s.readLCB(nd, cur)
			if err != nil {
				return dropped, orphans, err
			}
			if ov.state != lcbOverflow || ov.name != Name(i) {
				intact = false
				break
			}
			parts = append(parts, cur)
			cur = ov.next
		}
		if intact {
			for _, p := range parts[1:] {
				referenced[p] = true
			}
			continue
		}
		// Broken: drop every surviving fragment; replay will rebuild.
		dropped++
		for _, p := range parts {
			if err := s.writeLCB(nd, p, lcb{state: lcbTombstone, next: -1}); err != nil {
				return dropped, orphans, err
			}
		}
	}
	// Reclaim orphaned overflow fragments (their head died or was dropped).
	for i := 0; i < s.nline; i++ {
		b, err := s.readLCB(nd, i)
		if err != nil {
			return dropped, orphans, err
		}
		if b.state == lcbOverflow && !referenced[i] {
			orphans++
			if err := s.writeLCB(nd, i, lcb{state: lcbTombstone, next: -1}); err != nil {
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

// Snapshot returns the state of every used LCB (whole chains aggregated),
// read on behalf of node nd. Non-resident lines and broken chains are
// skipped. Intended for verification and experiments, not for the
// transaction path.
func (s *SMManager) Snapshot(nd machine.NodeID) ([]LockState, error) {
	var out []LockState
	for i := 0; i < s.nline; i++ {
		l := s.base + machine.LineID(i)
		if !s.M.Resident(l) {
			continue
		}
		b, err := s.readLCB(nd, i)
		if err != nil {
			if errors.Is(err, machine.ErrLineLost) {
				continue
			}
			return nil, err
		}
		if b.state != lcbUsed {
			continue
		}
		full, _, err := s.loadChain(nd, i)
		if err != nil {
			continue // broken chain mid-crash; the sweep will handle it
		}
		out = append(out, LockState{Name: full.name, Holders: full.holders, Waiters: full.waiters})
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
// earlier incompatible waiter. Used for deadlock detection.
func (s *SMManager) WaitsFor(nd machine.NodeID) (map[wal.TxnID][]wal.TxnID, error) {
	snap, err := s.Snapshot(nd)
	if err != nil {
		return nil, err
	}
	out := make(map[wal.TxnID][]wal.TxnID)
	for _, st := range snap {
		for wi, w := range st.Waiters {
			for _, h := range st.Holders {
				if h.Txn != w.Txn && !Compatible(h.Mode, w.Mode) {
					out[w.Txn] = append(out[w.Txn], h.Txn)
				}
			}
			for _, earlier := range st.Waiters[:wi] {
				if earlier.Txn != w.Txn && !Compatible(earlier.Mode, w.Mode) {
					out[w.Txn] = append(out[w.Txn], earlier.Txn)
				}
			}
		}
	}
	return out, nil
}

// FindDeadlock returns the victim of one waits-for cycle, or 0 if the lock
// space is deadlock-free. Victim selection is deterministic: the youngest
// (largest-ID) transaction on the first cycle found in sorted traversal
// order, so every participant that polls reaches the same verdict.
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
