package recovery

import (
	"errors"
	"fmt"
	"slices"

	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/wal"
)

// The engine owns a transaction's locks from request to release: what it
// holds and what it has asked for live in its node-local state (paper section
// 3.1), which Lock writes, ReleaseLocks empties and lock-space recovery
// (replayNodeLocks, CheckIFA) reads. Nothing outside this file releases or
// withdraws a transaction's lock, so every entry a live transaction has in
// the lock table can be found without the goroutine that drove it.

// ErrDeadlock reports that a lock request made its transaction the victim of
// a waits-for cycle: the request is withdrawn and the caller must abort.
var ErrDeadlock = errors.New("recovery: deadlock victim")

// LockEntry is one lock a transaction holds or has asked for, as its
// node-local state records it.
type LockEntry struct {
	Name lock.Name
	Mode lock.Mode
}

// noteLock records name in mode in list, one entry per name; the stronger
// mode wins.
func noteLock(list []LockEntry, name lock.Name, mode lock.Mode) []LockEntry {
	for i := range list {
		if list[i].Name == name {
			list[i].Mode = max(list[i].Mode, mode)
			return list
		}
	}
	return append(list, LockEntry{Name: name, Mode: mode})
}

// Lock requests name in mode for t on t's node and reports whether t now
// holds it; false means the request is queued (call Lock again to poll it).
// The request is recorded before it reaches the LCB and resolved however the
// grant is discovered — at once, promoted before a look, or by a release
// between the deadlock verdict and the withdrawal: a grant nobody recorded
// would outlive the transaction and block every later request for good. A
// request left queued stays recorded, also when the driver moves on to
// another, for ReleaseLocks to withdraw.
//
// The first attempt is the paper's acquisition: one logical log record, one
// LCB operation. A request that comes back queued, and every later call for
// it while it is recorded as queued, is a poll — one look at that LCB and, if
// it is still blocked, the deadlock chase; no second log record or waiter
// entry, nothing counted as an acquisition. Only a request the look finds
// gone (recovery restructured the lock space meanwhile) is acquired afresh.
//
// A queued or victim attempt's sim cost (queueing and looking is how a
// waiting node's clock advances) becomes a CauseLockWait waterfall segment; a
// granted attempt's stays in the enclosing bracket's compute residue.
func (db *DB) Lock(t wal.TxnID, name lock.Name, mode lock.Mode) (granted bool, err error) {
	nc, st, err := db.txn(t)
	if err != nil {
		return false, err
	}
	nd := t.Node()
	o := db.hk.Load().Observer
	if o != nil {
		waitFrom := db.M.Clock(nd)
		defer func() {
			if !granted && (err == nil || err == ErrDeadlock) {
				db.Wait(nd, t, obs.CauseLockWait, waitFrom, int64(name))
			}
		}()
	}
	nc.mu.Lock()
	poll := slices.ContainsFunc(st.wants, func(w LockEntry) bool { return w.Name == name && w.Mode >= mode })
	if !poll {
		st.wants = noteLock(st.wants, name, mode)
	}
	nc.mu.Unlock()
	if !poll {
		if granted, err = db.Locks.Acquire(nd, t, name, mode); err != nil {
			return false, err
		}
	}
	victim := false
	if !granted {
		// It may have been promoted since it was queued.
		var buf [12]wal.TxnID
		held, queued, blockers, err := db.Locks.Look(nd, t, name, buf[:0])
		if err != nil {
			return false, err
		}
		switch {
		case held >= mode:
			granted = true
		case !queued:
			if granted, err = db.Locks.Acquire(nd, t, name, mode); err != nil || !granted {
				return false, err
			}
		default:
			if victim, err = db.youngestOnCycle(t, name, blockers); err != nil || !victim {
				return false, err
			}
			// A release may grant the request between the verdict and the
			// withdrawal: then no wait is left to cancel, nobody waits for
			// anybody through this lock any more, and t holds it.
			m, err := db.Locks.WithdrawWait(nd, t, name)
			if err != nil {
				return false, err
			}
			granted, victim = m >= mode, m < mode
		}
	}
	nc.mu.Lock()
	if granted {
		st.locks = noteLock(st.locks, name, mode)
	}
	// The request is out of the table if it was withdrawn, or asked for no
	// more than was granted.
	st.wants = slices.DeleteFunc(st.wants, func(w LockEntry) bool {
		return w.Name == name && (victim || w.Mode <= mode)
	})
	nc.mu.Unlock()
	if victim {
		o.Instant(obs.KindDeadlock, int32(nd), db.M.Clock(nd), int64(t), int64(name))
		return false, ErrDeadlock
	}
	return true, nil
}

// youngestOnCycle reports whether t, whose queued request for name waits for
// blockers, closes a waits-for cycle of which it is the youngest (largest-ID)
// member — the deadlock victim, so that every cycle is broken by exactly one
// of its members, whichever of them polls. It chases the request's own wait
// chain instead of scanning the lock table: each blocker leads, through the
// queued requests its node-local state records, to the LCBs it waits on, read
// through the simulated machine on t's node like any other look; a running
// blocker (no queued request) ends its branch at once, and a blocker younger
// than t is not followed — a cycle through it is its own poll's to break.
// Transactions whose node is down have lost their state and wait for nothing,
// and an LCB the crash destroyed holds nobody up until recovery rebuilds it.
//
// The looks happen at different instants, so the chase may assemble a cycle
// that never existed at any one of them and abort t needlessly; it cannot
// miss a real one, whose members all stay queued — every edge of it is there
// for each look of any poll made after it formed. Lock order: one node mutex
// at a time, released before the next machine call. The work list lives on
// the stack (blockers is the caller's, reused for every look) and allocates
// only if a wait chain outgrows it.
func (db *DB) youngestOnCycle(t wal.TxnID, name lock.Name, blockers []wal.TxnID) (bool, error) {
	// seen are the transactions older than t it transitively waits for, in
	// discovery order: the visited set, and from i on the ones not yet
	// followed. note adds one look's blockers and reports whether t is one.
	var seenBuf [16]wal.TxnID
	var wantBuf [2]LockEntry
	seen := seenBuf[:0]
	note := func(blockers []wal.TxnID) bool {
		for _, b := range blockers {
			if b == t {
				return true
			}
			if b < t && !slices.Contains(seen, b) {
				seen = append(seen, b)
			}
		}
		return false
	}
	if note(blockers) {
		return true, nil
	}
	for i, u := 0, t; ; i++ {
		wants := wantBuf[:0]
		if st := db.lookup(u); st != nil && st.live() {
			nc := &db.nodes[u.Node()]
			nc.mu.Lock()
			wants = append(wants, st.wants...)
			nc.mu.Unlock()
		}
		for _, w := range wants {
			if u == t && w.Name == name {
				continue // the look that brought us here
			}
			var err error
			_, _, blockers, err = db.Locks.Look(t.Node(), u, w.Name, blockers[:0])
			if errors.Is(err, machine.ErrLineLost) {
				continue
			}
			if err != nil {
				return false, err
			}
			if note(blockers) {
				return true, nil
			}
		}
		if i == len(seen) {
			return false, nil
		}
		u = seen[i]
	}
}

// ReleaseLocks ends t's lock ownership: queued requests are withdrawn first,
// so no release can promote them, then every held lock is released in grant
// order (a request found granted after all goes with them). Commit and Abort
// end with it; a caller that cannot finish a transaction (the
// deferred-logging control) calls it to shed the locks alone. The held-lock
// record is kept: nobody reads a finished transaction's, and one left active
// without its locks is what CheckIFA should go on reporting.
//
// Tolerated, each meaning the lock space no longer has the entry:
// lock.ErrNotHeld (recovery restructured the lock space, or t was ended
// before), machine.ErrLineLost (the LCB died with a crashed node; the replay
// rebuilds only still-active transactions' locks) and machine.ErrNodeDown
// (t's own node died mid-release; ReleaseCrashed sweeps its entries).
func (db *DB) ReleaseLocks(t wal.TxnID) error {
	nc, st, err := db.txn(t)
	if err != nil {
		return err
	}
	gone := func(err error) bool {
		return errors.Is(err, lock.ErrNotHeld) || errors.Is(err, machine.ErrLineLost) || errors.Is(err, machine.ErrNodeDown)
	}
	nd := t.Node()
	var nbuf [16]lock.Name
	var wbuf [2]LockEntry
	names := nbuf[:0]
	nc.mu.Lock()
	wants := append(wbuf[:0], st.wants...)
	for _, h := range st.locks {
		names = append(names, h.Name)
	}
	st.wants = st.wants[:0]
	nc.mu.Unlock()
	for _, w := range wants {
		held, err := db.Locks.WithdrawWait(nd, t, w.Name)
		if err != nil && !gone(err) {
			return fmt.Errorf("recovery: withdrawing %v's request for %v: %w", t, w.Name, err)
		}
		// What t is left holding is already in names (an upgrade keeps its
		// prior grant) or is a late grant to release with the rest.
		if held != 0 && !slices.Contains(names, w.Name) {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if err := db.Locks.Release(nd, t, name); err != nil && !gone(err) {
			return fmt.Errorf("recovery: releasing %v for %v: %w", name, t, err)
		}
	}
	return nil
}

// TxnLocks returns what t's node-local state records: the locks it holds, in
// grant order, and the requests it has made that are not yet granted.
func (db *DB) TxnLocks(t wal.TxnID) (held, queued []LockEntry) {
	nc, st, err := db.txn(t)
	if err != nil {
		return nil, nil
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return slices.Clone(st.locks), slices.Clone(st.wants)
}
