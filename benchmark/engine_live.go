package main

import (
	"errors"
	"fmt"

	"smdb/internal/heap"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
)

// liveEngine adapts smdb/internal, the engine under test. engine_ref.go is
// the same file over refengine/; it stays as it is when the live engine's
// API moves and this file follows.
type liveEngine struct {
	db  *recovery.DB
	mgr *txn.Manager
	rep *recovery.RecoveryReport // of the last recover
}

type liveTx struct{ t *txn.Txn }

func newLiveEngine(protocol string, recoveryWorkers int) (*liveEngine, error) {
	p, ok := recovery.ParseProtocol(protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", protocol)
	}
	db, err := recovery.New(recovery.Config{
		Machine:         machine.Config{Nodes: nodes, Lines: machineLines},
		Protocol:        p,
		LinesPerPage:    linesPerPage,
		RecsPerLine:     recsPerLine,
		Pages:           pages,
		LockTableLines:  lockTableLines,
		RecoveryWorkers: recoveryWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &liveEngine{db: db, mgr: txn.NewManager(db)}, nil
}

func liveRID(r rid) heap.RID { return heap.RID{Page: storage.PageID(r.page), Slot: r.slot} }

func liveErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, txn.ErrBlocked):
		return errBlocked
	case errors.Is(err, txn.ErrDeadlock):
		return errDeadlock
	}
	return err
}

func (e *liveEngine) slotsPerPage() int { return e.db.Store.Layout.SlotsPerPage() }

func (e *liveEngine) seed() error {
	for p := 0; p < pages; p++ {
		t, err := e.mgr.Begin(0)
		if err != nil {
			return err
		}
		for s := 0; s < e.slotsPerPage(); s++ {
			r := rid{int32(p), uint16(s)}
			if err := t.Insert(liveRID(r), []byte{1, byte(p), byte(s)}); err != nil {
				return fmt.Errorf("seeding %v: %w", r, err)
			}
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	return e.db.Checkpoint(0)
}

func (e *liveEngine) begin(node int) (txHandle, error) {
	t, err := e.mgr.Begin(machine.NodeID(node))
	if err != nil {
		return nil, err
	}
	return liveTx{t}, nil
}

func (e *liveEngine) retained() int {
	n := 0
	for _, l := range e.db.Logs {
		n += l.Len()
	}
	return n
}

func (e *liveEngine) crash(node int) { e.db.Crash(machine.NodeID(node)) }

func (e *liveEngine) recover(node int) ([]uint64, error) {
	rep, err := e.db.Recover([]machine.NodeID{machine.NodeID(node)})
	if err != nil {
		return nil, err
	}
	e.rep = rep
	out := make([]uint64, len(rep.Aborted))
	for i, id := range rep.Aborted {
		out[i] = uint64(id)
	}
	return out, nil
}

func (e *liveEngine) restartNode(node int) error { return e.db.RestartNode(machine.NodeID(node)) }
func (e *liveEngine) checkIFA() []string         { return e.db.CheckIFA(0) }
func (e *liveEngine) verifyDurability() []string { return e.db.VerifyCommittedDurability(0) }
func (e *liveEngine) checkpoint() error          { return e.db.Checkpoint(0) }

func (e *liveEngine) read(r rid) ([]byte, error) {
	sd, err := e.db.Read(0, liveRID(r))
	if err != nil || !sd.Occupied() {
		return nil, err
	}
	return sd.Data, nil
}

func (t liveTx) id() uint64 { return uint64(t.t.ID()) }

func (t liveTx) read(r rid) error {
	_, err := t.t.Read(liveRID(r))
	return liveErr(err)
}

func (t liveTx) write(r rid, val []byte) error { return liveErr(t.t.Write(liveRID(r), val)) }
func (t liveTx) commit() error                 { return t.t.Commit() }
func (t liveTx) abort() error                  { return t.t.Abort() }
