// Package txn provides the transaction interface of the shared-memory
// database: begin/read/write/insert/delete/commit/abort with strict
// two-phase locking over the recovery engine. Under strict 2PL, record
// locks are held until commit or abort, so at most one transaction is ever
// associated with an uncommitted record — the assumption the paper's
// recovery protocols (and their simple before-image undo) rest on.
//
// Lock waits are surfaced as ErrBlocked rather than blocking the goroutine:
// the workload drivers re-issue the operation until it succeeds, which keeps
// single-goroutine experiments deterministic. Deadlocks are detected on the
// waits-for graph in the shared lock space and broken by aborting the
// requester (ErrDeadlock).
package txn

import (
	"errors"
	"fmt"
	"runtime"

	"smdb/internal/heap"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/obs/waterfall"
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
	ErrDeadlock = errors.New("txn: deadlock victim")
	// ErrDone reports an operation on a committed or aborted transaction.
	ErrDone = errors.New("txn: transaction already finished")
	// ErrNotFound reports a read of an unoccupied or deleted record.
	ErrNotFound = errors.New("txn: record not found")
)

// Manager creates and runs transactions against a recovery.DB.
type Manager struct {
	DB *recovery.DB
}

// NewManager returns a transaction manager over db.
func NewManager(db *recovery.DB) *Manager { return &Manager{DB: db} }

// Txn is one transaction, bound to the node it runs on.
type Txn struct {
	mgr  *Manager
	id   wal.TxnID
	node machine.NodeID
	done bool
	// stallSince is the sim time this transaction first observed the recovery
	// freeze window (0 = not stalled); when the freeze lifts, the span becomes
	// a CauseFrozen waterfall segment.
	stallSince int64
}

// wfNop is the shared no-op bracket closer for the recorder-off path.
var wfNop = func() {}

// wfOp opens this operation's waterfall bracket — the compute-residue
// accounting covers the whole transaction-layer op, lock-manager work
// included — and returns its closer. The engine's own brackets (applyChange)
// nest inside harmlessly. With no recorder attached both halves no-op.
func (t *Txn) wfOp() func() {
	wf := t.mgr.DB.Hooks().Waterfall
	if wf == nil {
		return wfNop
	}
	wf.OpStart(int64(t.id), int32(t.node), t.mgr.DB.M.Clock(t.node))
	return func() {
		wf.OpEnd(int64(t.id), int32(t.node), t.mgr.DB.M.Clock(t.node))
	}
}

// Begin starts a transaction on node nd.
func (m *Manager) Begin(nd machine.NodeID) (*Txn, error) {
	id, err := m.DB.Begin(nd)
	if err != nil {
		return nil, err
	}
	return &Txn{mgr: m, id: id, node: nd}, nil
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
		if t.stallSince == 0 && t.mgr.DB.Hooks().Waterfall != nil {
			t.stallSince = t.mgr.DB.M.Clock(t.node)
		}
		return ErrBlocked
	}
	if t.stallSince != 0 {
		// The freeze lifted: whatever sim time recovery charged this node in
		// the meantime is the transaction's frozen stall.
		if wf := t.mgr.DB.Hooks().Waterfall; wf != nil {
			now := t.mgr.DB.M.Clock(t.node)
			wf.AddWait(int64(t.id), waterfall.CauseFrozen, t.stallSince, now-t.stallSince, 0, 0)
		}
		t.stallSince = 0
	}
	return nil
}

// acquire requests a lock, translating a queued request into ErrBlocked and
// a waits-for cycle into ErrDeadlock (with the wait cancelled). Each blocked
// attempt's sim cost — the shared-memory lock-manager work of queueing and
// re-probing, which is how a waiting node's clock advances — is recorded as a
// CauseLockWait segment; a granted attempt's cost stays in the enclosing
// bracket's compute residue.
func (t *Txn) acquire(name lock.Name, mode lock.Mode) (err error) {
	if wf := t.mgr.DB.Hooks().Waterfall; wf != nil {
		waitFrom := t.mgr.DB.M.Clock(t.node)
		defer func() {
			if !errors.Is(err, ErrBlocked) && !errors.Is(err, ErrDeadlock) {
				return
			}
			if end := t.mgr.DB.M.Clock(t.node); end > waitFrom {
				wf.AddWait(int64(t.id), waterfall.CauseLockWait, waitFrom, end-waitFrom, int64(name), 0)
			}
		}()
	}
	locks := t.mgr.DB.Locks
	granted, err := locks.Acquire(t.node, t.id, name, mode)
	if err != nil {
		return err
	}
	if !granted {
		// It may have been promoted between the queueing and now.
		if m, held, err := locks.Holds(t.node, t.id, name); err != nil {
			return err
		} else if held && m >= mode {
			granted = true
		}
	}
	if granted {
		t.mgr.DB.NoteLock(t.id, name, mode)
		return nil
	}
	victim, err := locks.FindDeadlock(t.node)
	if err != nil {
		return err
	}
	if victim == t.id {
		held, err := locks.WithdrawWait(t.node, t.id, name)
		if err != nil {
			return err
		}
		if held >= mode {
			// A release granted the request between the check above and the
			// withdrawal: there was no wait left to cancel, and nobody is
			// waiting for anybody through this lock any more. The
			// transaction holds it — unrecorded, it would outlive the
			// transaction and block every later request for good.
			t.mgr.DB.NoteLock(t.id, name, mode)
			return nil
		}
		t.mgr.DB.Hooks().Observer.Instant(obs.KindDeadlock, int32(t.node),
			t.mgr.DB.M.Clock(t.node), int64(t.id), int64(name))
		return ErrDeadlock
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
	defer t.wfOp()()
	return t.acquire(lock.NameOfKey(key), mode)
}

// Read returns the record at rid under a shared lock (serializable).
func (t *Txn) Read(rid heap.RID) ([]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	defer t.wfOp()()
	if err := t.acquire(lock.NameOfRID(rid), lock.Shared); err != nil {
		return nil, err
	}
	sd, err := t.mgr.DB.Read(t.node, rid)
	if err != nil {
		return nil, err
	}
	if !sd.Occupied() || sd.Deleted() {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return append([]byte(nil), sd.Data...), nil
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
	defer t.wfOp()()
	sd, err := t.mgr.DB.Read(t.node, rid)
	if err != nil {
		return nil, err
	}
	if !sd.Occupied() || sd.Deleted() {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return append([]byte(nil), sd.Data...), nil
}

// Write updates the record at rid under an exclusive lock.
func (t *Txn) Write(rid heap.RID, data []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	defer t.wfOp()()
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
	defer t.wfOp()()
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
	defer t.wfOp()()
	if err := t.acquire(lock.NameOfRID(rid), lock.Exclusive); err != nil {
		return err
	}
	return t.mgr.DB.Delete(t.node, t.id, rid)
}

// Commit commits the transaction and releases its locks (strict 2PL: only
// after the commit record is stable).
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.mgr.DB.Commit(t.node, t.id); err != nil {
		return err
	}
	t.releaseAll()
	t.done = true
	return nil
}

// Abort rolls the transaction back and releases its locks.
func (t *Txn) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.mgr.DB.Abort(t.node, t.id); err != nil {
		return err
	}
	t.releaseAll()
	t.done = true
	return nil
}

// releaseAll frees every lock the node-local state recorded. Tolerated
// errors: ErrNotHeld (restart recovery already restructured the lock
// space), ErrLineLost (the LCB died with a crashed node; recovery's replay
// re-establishes only still-active transactions' locks, which releases ours
// implicitly), and ErrNodeDown (our own node died mid-release).
func (t *Txn) releaseAll() {
	var buf [16]lock.Name
	for _, name := range t.mgr.DB.AppendHeldLocks(buf[:0], t.id) {
		err := t.mgr.DB.Locks.Release(t.node, t.id, name)
		switch {
		case err == nil:
		case errors.Is(err, lock.ErrNotHeld),
			errors.Is(err, machine.ErrLineLost),
			errors.Is(err, machine.ErrNodeDown):
		default:
			panic(fmt.Sprintf("txn: releasing %v for %v: %v", name, t.id, err))
		}
	}
}

// Retry re-invokes op until it stops returning ErrBlocked, yielding the
// node's goroutine between attempts. Deterministic drivers schedule around
// ErrBlocked themselves; Retry is for concurrent use.
func Retry(op func() error) error {
	for {
		err := op()
		if !errors.Is(err, ErrBlocked) {
			return err
		}
		runtime.Gosched()
	}
}
