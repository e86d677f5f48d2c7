// Package txn provides the transaction interface of the shared-memory
// database: begin/read/write/insert/delete/commit/abort with strict
// two-phase locking over the recovery engine. Under strict 2PL, record
// locks are held until commit or abort, so at most one transaction is ever
// associated with an uncommitted record — the assumption the paper's
// recovery protocols (and their simple before-image undo) rest on.
//
// The engine owns a transaction's locks: every request goes through
// recovery.DB.Lock, which records it in the transaction's node-local state,
// and Commit and Abort end with recovery.DB.ReleaseLocks — this package
// neither records nor releases anything.
//
// Lock waits are surfaced as ErrBlocked rather than blocking the goroutine:
// the caller re-issues the operation until it succeeds, which keeps
// single-goroutine experiments deterministic. A blocked request chases its
// own wait chain through the shared lock space, and the youngest member of a
// waits-for cycle is aborted when it next polls (ErrDeadlock). The stall
// contract — which errors mean "re-issue the operation unchanged" (Stalled)
// and the loop that does so (RetryUntil, Retry) — is defined here, once, for
// every concurrent driver.
package txn

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
	"smdb/internal/sched"
	"smdb/internal/wal"
)

// Errors.
var (
	// ErrBlocked reports that a lock request was queued; retry the
	// operation until it stops returning ErrBlocked.
	ErrBlocked = errors.New("txn: waiting for lock")
	// ErrDeadlock reports that the transaction was chosen as a deadlock
	// victim and must be aborted by the caller.
	ErrDeadlock = recovery.ErrDeadlock
	// ErrDone reports an operation on a committed or aborted transaction.
	ErrDone = errors.New("txn: transaction already finished")
	// ErrNotFound reports a read of an unoccupied or deleted record.
	ErrNotFound = errors.New("txn: record not found")
)

// Manager creates and runs transactions against a recovery.DB. Make one
// with NewManager.
type Manager struct {
	DB *recovery.DB
	// slabs holds each node's current Txn slab, by node.
	slabs []atomic.Pointer[txnSlab]
}

// NewManager returns a transaction manager over db.
func NewManager(db *recovery.DB) *Manager {
	return &Manager{DB: db, slabs: make([]atomic.Pointer[txnSlab], db.M.Nodes())}
}

// txnSlabLen is the number of Txns in one slab.
const txnSlabLen = 64

// txnSlab is a block of Txns a node's Begins take front to back. A Txn is
// never reused, so a handle stays its transaction's for as long as anyone
// holds it (a stale one still answers ErrDone), and the slab lives while
// anything points into it.
type txnSlab struct {
	txns [txnSlabLen]Txn
	used atomic.Int64
}

// newTxn returns the handle of transaction id on node nd, taken from nd's
// slab. Lock-free: the index is an atomic bump, and whoever finds the slab
// full swaps a fresh one in.
func (m *Manager) newTxn(id wal.TxnID, nd machine.NodeID) *Txn {
	ref := &m.slabs[nd]
	var t *Txn
	for t == nil {
		s := ref.Load()
		if s != nil {
			if i := s.used.Add(1); i <= txnSlabLen {
				t = &s.txns[i-1]
				break
			}
		}
		fresh := new(txnSlab)
		fresh.used.Store(1)
		if ref.CompareAndSwap(s, fresh) {
			t = &fresh.txns[0]
		}
	}
	t.mgr, t.id, t.node = m, id, nd
	return t
}

// Txn is one transaction, bound to the node it runs on.
type Txn struct {
	mgr  *Manager
	id   wal.TxnID
	node machine.NodeID
	done bool
	// stallSince is the sim time this transaction first observed the recovery
	// freeze window (0 = not stalled); when the freeze lifts, the span becomes
	// a CauseFrozen wait.
	stallSince int64
	// polls counts the blocked lock polls this transaction has made in a row
	// (see acquire).
	polls int
}

// open opens this operation's bracket (KindOpStart) and returns t, so
// `defer t.open().close()` brackets the rest of the operation. It covers the
// whole transaction-layer op, lock-manager work included, so its residue is
// compute; the engine's own brackets (applyChange) nest inside harmlessly.
func (t *Txn) open() *Txn {
	t.mgr.DB.TxnEvent(obs.KindOpStart, t.node, t.id, int64(obs.CauseCompute))
	return t
}

// close closes the bracket open opened.
func (t *Txn) close() { t.mgr.DB.TxnEvent(obs.KindOpEnd, t.node, t.id, 0) }

// Begin starts a transaction on node nd.
func (m *Manager) Begin(nd machine.NodeID) (*Txn, error) {
	id, err := m.DB.Begin(nd)
	if err != nil {
		return nil, err
	}
	return m.newTxn(id, nd), nil
}

// ID returns the transaction identifier.
func (t *Txn) ID() wal.TxnID { return t.id }

// Node returns the node the transaction runs on.
func (t *Txn) Node() machine.NodeID { return t.node }

// Done reports whether the transaction has committed or aborted.
func (t *Txn) Done() bool { return t.done }

func (t *Txn) check() error {
	if t.done {
		return ErrDone
	}
	// Chaos scheduling point: every operation's liveness/freeze observation
	// is a recorded decision, so a replay re-executes it at exactly the
	// recorded place in the global interleaving. No-op without a session.
	t.mgr.DB.SchedPoint(int32(t.node), sched.SiteCheck, 0)
	if !t.mgr.DB.M.Alive(t.node) {
		return machine.ErrNodeDown
	}
	if t.mgr.DB.Frozen() {
		// Between a crash and the end of restart recovery, transaction
		// processing stalls (the hardware has interrupted all CPUs);
		// callers retry as they do for lock waits.
		if t.stallSince == 0 {
			t.stallSince = t.mgr.DB.M.Clock(t.node)
		}
		return ErrBlocked
	}
	if t.stallSince != 0 {
		// The freeze lifted: whatever sim time recovery charged this node in
		// the meantime is the transaction's frozen stall.
		t.mgr.DB.Wait(t.node, t.id, obs.CauseFrozen, t.stallSince, 0)
		t.stallSince = 0
	}
	return nil
}

// A poll of a queued request is a look at one LCB, cheap enough to repeat a
// few thousand times per millisecond, and a waiter whose driver spins on it
// finds a running holder gone within a few dozen polls. One still queued after
// spinPolls polls in a row waits for a holder that has lost its CPU (or for a
// long chain): from there every blocked poll first sleeps pollBackoff — in
// practice the host's timer granularity, a millisecond — giving the CPU to
// whoever must run for the wait to end instead of charging the simulated
// machine thousands of looks. Deterministic single-goroutine drivers re-poll
// once per scheduling round and never get that far.
const (
	spinPolls   = 256
	pollBackoff = 50 * time.Microsecond
)

// acquire requests a lock through the engine, which owns it from here to
// the end of the transaction (recovery.DB.Lock); a queued request is
// ErrBlocked.
func (t *Txn) acquire(name lock.Name, mode lock.Mode) error {
	granted, err := t.mgr.DB.Lock(t.id, name, mode)
	if err != nil || granted {
		t.polls = 0
		return err
	}
	if t.polls++; t.polls > spinPolls {
		time.Sleep(pollBackoff)
	}
	return ErrBlocked
}

// LockKey acquires a key lock for the transaction (used by the B-tree,
// whose isolation unit is the key rather than the slot). It returns
// ErrBlocked / ErrDeadlock like every other lock acquisition.
func (t *Txn) LockKey(key uint64, mode lock.Mode) error {
	if err := t.check(); err != nil {
		return err
	}
	defer t.open().close()
	return t.acquire(lock.NameOfKey(key), mode)
}

// Read returns the record at rid under a shared lock (serializable). The
// bytes are the caller's own: no later write, read or abort changes them.
func (t *Txn) Read(rid heap.RID) ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	defer t.open().close()
	if err := t.acquire(lock.NameOfRID(rid), lock.Shared); err != nil {
		return nil, err
	}
	return t.visible(rid)
}

// visible returns the record at rid — the caller's own: a copy the engine
// carved from the node's arena and never writes again — or ErrNotFound if
// the slot is unoccupied or the record deleted.
func (t *Txn) visible(rid heap.RID) ([]byte, error) {
	sd, err := t.mgr.DB.Read(t.node, rid)
	if err != nil {
		return nil, err
	}
	if !sd.Occupied() || sd.Deleted() {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return sd.Data, nil
}

// ReadDirty returns the record at rid without any lock — the browse/chaos
// isolation degrees of Gray & Reuter, permitted only when the database is
// configured with DirtyReads. Section 3.2's point: with dirty reads, the
// H_wr hazard arises even with one object per cache line.
func (t *Txn) ReadDirty(rid heap.RID) ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if !t.mgr.DB.Cfg.DirtyReads {
		return nil, errors.New("txn: dirty reads not enabled")
	}
	defer t.open().close()
	return t.visible(rid)
}

// Write updates the record at rid under an exclusive lock.
func (t *Txn) Write(rid heap.RID, data []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	defer t.open().close()
	if err := t.acquire(lock.NameOfRID(rid), lock.Exclusive); err != nil {
		return err
	}
	return t.mgr.DB.Update(t.node, t.id, rid, data)
}

// Insert stores a new record at rid under an exclusive lock.
func (t *Txn) Insert(rid heap.RID, data []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	defer t.open().close()
	if err := t.acquire(lock.NameOfRID(rid), lock.Exclusive); err != nil {
		return err
	}
	return t.mgr.DB.Insert(t.node, t.id, rid, data)
}

// Delete logically deletes the record at rid under an exclusive lock.
func (t *Txn) Delete(rid heap.RID) error {
	if err := t.check(); err != nil {
		return err
	}
	defer t.open().close()
	if err := t.acquire(lock.NameOfRID(rid), lock.Exclusive); err != nil {
		return err
	}
	return t.mgr.DB.Delete(t.node, t.id, rid)
}

// Commit commits the transaction; the engine releases its locks once the
// commit record is stable (strict 2PL).
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.mgr.DB.Commit(t.node, t.id); err != nil {
		return err
	}
	t.done = true
	return nil
}

// Abort rolls the transaction back; the engine releases its locks and
// withdraws a request it left queued.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.mgr.DB.Abort(t.node, t.id); err != nil {
		return err
	}
	t.done = true
	return nil
}

// Stalled reports whether err is a stall — the operation could not proceed
// yet and is to be re-issued unchanged: ErrBlocked (a lock wait, or the
// freeze window between a crash and the end of restart recovery) or
// machine.ErrLineLost (data a crash destroyed that recovery has not yet
// repaired). Everything else, machine.ErrNodeDown included, is final.
func Stalled(err error) bool {
	return errors.Is(err, ErrBlocked) || errors.Is(err, machine.ErrLineLost)
}

// RetryUntil runs op until it returns something other than a stall, yielding
// the goroutine between attempts, and returns that result with the number of
// stalls it sat through. stop, if non-nil, is consulted after every stall and
// never before the first attempt; once it reports true the stall itself is
// returned. Deterministic single-goroutine drivers schedule around stalls
// themselves; this loop is for concurrent use.
func RetryUntil(op func() error, stop func() bool) (stalls int, err error) {
	for {
		if err = op(); !Stalled(err) {
			return stalls, err
		}
		stalls++
		if stop != nil && stop() {
			return stalls, err
		}
		runtime.Gosched()
	}
}

// Retry is RetryUntil with nothing to stop it.
func Retry(op func() error) error {
	_, err := RetryUntil(op, nil)
	return err
}
