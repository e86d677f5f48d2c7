package lock

import (
	"sync"

	"smdb/internal/machine"
	"smdb/internal/wal"
)

// SDManager is the shared-disk-style message-passing lock manager baseline
// (the architecture of the VAXcluster distributed lock manager and of the
// systems in [19, 21, 25], sketched in sections 4.2.2 and 7). Each lock
// name has a designated owner node holding its lock state in private
// memory; other nodes acquire and release by exchanging messages with the
// owner. To survive node failures without read-lock logging, the owner
// replicates each lock-state change to a backup node (one more message).
//
// The simulated cost of every remote interaction is one OS-level message
// round trip — the overhead that SM locking eliminates entirely. Lock state
// lives in Go maps, modelling per-node private memory (it is not part of
// the coherent shared-memory space, so it neither migrates nor gets
// destroyed by remote failures).
type SDManager struct {
	M *machine.Machine

	mu        sync.Mutex
	nodes     int
	primary   []map[Name]*sdLCB // indexed by owner node
	replica   []map[Name]*sdLCB // replica of node i's primary, stored at (i+1)%nodes
	alive     []bool
	stats     SDStats
	replicate bool
}

// sdLCB is the owner-resident lock state.
type sdLCB struct {
	holders []Entry
	waiters []Entry
}

// SDStats counts SD lock manager activity.
type SDStats struct {
	Acquires, Grants, Waits, Releases int64
	// Messages is the number of message round trips exchanged.
	Messages int64
}

// NewSDManager creates the baseline manager for the machine's node count.
// replicate enables backup replication of every lock-state change (the
// failure-resilient configuration of [19, 25]).
func NewSDManager(m *machine.Machine, replicate bool) *SDManager {
	n := m.Nodes()
	s := &SDManager{M: m, nodes: n, replicate: replicate}
	s.primary = make([]map[Name]*sdLCB, n)
	s.replica = make([]map[Name]*sdLCB, n)
	s.alive = make([]bool, n)
	for i := 0; i < n; i++ {
		s.primary[i] = make(map[Name]*sdLCB)
		s.replica[i] = make(map[Name]*sdLCB)
		s.alive[i] = true
	}
	return s
}

// Owner returns the designated owner node of a lock name.
func (s *SDManager) Owner(name Name) machine.NodeID {
	h := uint64(name) * 0x9e3779b97f4a7c15
	h ^= h >> 33 // fold the high bits so small moduli see them
	return machine.NodeID(h % uint64(s.nodes))
}

// backupOf returns the node holding the replica of owner's lock table.
func (s *SDManager) backupOf(owner machine.NodeID) machine.NodeID {
	return machine.NodeID((int(owner) + 1) % s.nodes)
}

// message charges one round trip to nd.
func (s *SDManager) message(nd machine.NodeID) {
	s.stats.Messages++
	s.M.AdvanceClock(nd, s.M.Config().Cost.MessageRoundTrip)
}

// table returns the authoritative lock map for name: the owner's primary,
// or its replica if the owner is down.
func (s *SDManager) table(name Name) (map[Name]*sdLCB, machine.NodeID) {
	o := s.Owner(name)
	if s.alive[o] {
		return s.primary[o], o
	}
	return s.replica[o], s.backupOf(o)
}

// Acquire requests name in mode for txn on node nd. Remote requests cost a
// message round trip; replication (if enabled) costs another.
func (s *SDManager) Acquire(nd machine.NodeID, txn wal.TxnID, name Name, mode Mode) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Acquires++
	tbl, host := s.table(name)
	if host != nd {
		s.message(nd)
	}
	b := tbl[name]
	if b == nil {
		b = &sdLCB{}
		tbl[name] = b
	}
	granted := s.acquireLCB(b, txn, mode)
	if s.replicate {
		s.message(nd)
		s.mirror(name, b)
	}
	if granted {
		s.stats.Grants++
	} else {
		s.stats.Waits++
	}
	return granted, nil
}

// acquireLCB applies the same grant rules as the SM manager.
func (s *SDManager) acquireLCB(b *sdLCB, txn wal.TxnID, mode Mode) bool {
	for i, h := range b.holders {
		if h.Txn != txn {
			continue
		}
		if h.Mode >= mode {
			return true
		}
		if len(b.holders) == 1 {
			b.holders[i].Mode = mode
			return true
		}
		for _, w := range b.waiters {
			if w.Txn == txn {
				return false // upgrade already queued
			}
		}
		b.waiters = append(b.waiters, Entry{Txn: txn, Mode: mode})
		return false
	}
	for _, w := range b.waiters {
		if w.Txn == txn {
			return false
		}
	}
	lb := lcb{holders: b.holders, waiters: b.waiters}
	if grantable(&lb, txn, mode) {
		b.holders = append(b.holders, Entry{Txn: txn, Mode: mode})
		return true
	}
	b.waiters = append(b.waiters, Entry{Txn: txn, Mode: mode})
	return false
}

// mirror copies b into the owner's replica table.
func (s *SDManager) mirror(name Name, b *sdLCB) {
	o := s.Owner(name)
	cp := &sdLCB{
		holders: append([]Entry(nil), b.holders...),
		waiters: append([]Entry(nil), b.waiters...),
	}
	s.replica[o][name] = cp
	if len(cp.holders) == 0 && len(cp.waiters) == 0 {
		delete(s.replica[o], name)
	}
}

// Holds reports whether txn holds name. Polling a remote owner costs a
// message round trip.
func (s *SDManager) Holds(nd machine.NodeID, txn wal.TxnID, name Name) (Mode, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, host := s.table(name)
	if host != nd {
		s.message(nd)
	}
	b := tbl[name]
	if b == nil {
		return 0, false, nil
	}
	for _, h := range b.holders {
		if h.Txn == txn {
			return h.Mode, true, nil
		}
	}
	return 0, false, nil
}

// Release removes txn's hold on (or wait for) name and promotes waiters.
func (s *SDManager) Release(nd machine.NodeID, txn wal.TxnID, name Name) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, host := s.table(name)
	if host != nd {
		s.message(nd)
	}
	b := tbl[name]
	if b == nil {
		return ErrNotHeld
	}
	found := false
	for i, h := range b.holders {
		if h.Txn == txn {
			b.holders = append(b.holders[:i], b.holders[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		for i, w := range b.waiters {
			if w.Txn == txn {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				found = true
				break
			}
		}
	}
	if !found {
		return ErrNotHeld
	}
	lb := lcb{holders: b.holders, waiters: b.waiters}
	promoteWaiters(&lb)
	b.holders, b.waiters = lb.holders, lb.waiters
	if len(b.holders) == 0 && len(b.waiters) == 0 {
		delete(tbl, name)
	}
	if s.replicate {
		s.message(nd)
		s.mirror(name, b)
	}
	s.stats.Releases++
	return nil
}

// Crash marks a node down. If replication is enabled the lock space
// survives (the backup's replica becomes authoritative); without it, the
// owner's lock state is simply lost — the failure mode replication exists
// to prevent. Locks held by crashed-node transactions are released.
func (s *SDManager) Crash(crashed ...machine.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	down := map[machine.NodeID]bool{}
	for _, c := range crashed {
		if int(c) < len(s.alive) {
			s.alive[c] = false
			down[c] = true
			s.primary[c] = make(map[Name]*sdLCB) // private memory destroyed
		}
	}
	// Drop entries of crashed transactions everywhere that survived.
	for i := 0; i < s.nodes; i++ {
		for _, tbl := range []map[Name]*sdLCB{s.primary[i], s.replica[i]} {
			for name, b := range tbl {
				lb := lcb{holders: b.holders, waiters: b.waiters}
				var rel int
				lb.holders, _ = dropCrashed(lb.holders, down, &rel, false)
				lb.waiters, _ = dropCrashed(lb.waiters, down, &rel, false)
				promoteWaiters(&lb)
				b.holders, b.waiters = lb.holders, lb.waiters
				if len(b.holders) == 0 && len(b.waiters) == 0 {
					delete(tbl, name)
				}
			}
		}
	}
}

// Stats returns a snapshot of the counters.
func (s *SDManager) Stats() SDStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
