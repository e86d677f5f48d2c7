package main

import (
	"fmt"
	"time"

	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/recovery"
	"smdb/internal/storage"
	"smdb/internal/txn"
	"smdb/internal/wal"
)

// unitCost is the cost of one direct call into a layer's public function,
// with the lower-layer operations that call performed (from Stats deltas),
// so a layer's self time can be told from its children's.
type unitCost struct {
	ns                           float64
	reads, writes, lineLocks     float64 // machine operations per call
	appends, forcedRecs, fetches float64 // wal and buffer operations per call
}

// unitCosts are the direct-call costs the budget is built from.
type unitCosts struct {
	readLocal, writeLocal, lineLock, migrate unitCost
	append, forceRec, scanRec                unitCost
	fetchHit                                 unitCost
	lockPair                                 unitCost
	update, read, commit                     unitCost
}

// timeCalls times iters calls of fn on db and returns the per-call cost.
func timeCalls(db *recovery.DB, iters int, fn func(i int) error) (unitCost, error) {
	var before layerCounts
	if db != nil {
		before = snapshot(db)
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(i); err != nil {
			return unitCost{}, err
		}
	}
	u := unitCost{ns: float64(time.Since(t0)) / float64(iters)}
	if db != nil {
		d := snapshot(db).sub(before)
		n := float64(iters)
		u.reads, u.writes, u.lineLocks = float64(d.mach.Reads)/n, float64(d.mach.Writes)/n, float64(d.mach.LineLockAcquires)/n
		u.appends, u.fetches = float64(d.walAppends)/n, float64(d.buf.Fetches)/n
	}
	return u, nil
}

// measureUnits times each layer's public functions directly, on a scratch
// DB of the workload's protocol.
func measureUnits(protocol string) (unitCosts, error) {
	var u unitCosts
	le, err := newLiveEngine(protocol, 0)
	if err != nil {
		return u, err
	}
	if err := le.seed(); err != nil {
		return u, err
	}
	db := le.db
	sp := newSpace(le.slotsPerPage())
	m := db.M
	rid := liveRID(sp.private[1][0])
	buf := []byte{7, 7, 7, 7}

	// machine: a scratch line resident in node 1's cache, then a two-node
	// ping-pong on it.
	line := m.Alloc(1)
	if err := m.Install(1, line, buf); err != nil {
		return u, err
	}
	if u.writeLocal, err = timeCalls(nil, microbenchIters, func(int) error { return m.Write(1, line, 0, buf) }); err != nil {
		return u, err
	}
	if u.readLocal, err = timeCalls(nil, microbenchIters, func(int) error { _, err := m.Read(1, line, 0, 4); return err }); err != nil {
		return u, err
	}
	if u.lineLock, err = timeCalls(nil, microbenchIters, func(int) error {
		if err := m.GetLine(1, line); err != nil {
			return err
		}
		return m.ReleaseLine(1, line)
	}); err != nil {
		return u, err
	}
	if u.migrate, err = timeCalls(nil, microbenchIters, func(i int) error {
		return m.Write(machine.NodeID(1+i%2), line, 0, buf)
	}); err != nil {
		return u, err
	}

	// wal: a standalone log, so the scratch DB's logs stay small.
	l, err := wal.NewLog(0, storage.NewLogDevice())
	if err != nil {
		return u, err
	}
	img := make([]byte, 1+db.Store.Layout.RecordSize())
	rec := wal.Record{Type: wal.TypeUpdate, Txn: wal.MakeTxnID(0, 1), Page: rid.Page, Slot: rid.Slot, Before: img, After: img}
	if u.append, err = timeCalls(nil, microbenchIters, func(int) error { l.Append(rec); return nil }); err != nil {
		return u, err
	}
	first := l.ForcedLSN()
	t0 := time.Now()
	for lsn := first + forceBatch; lsn < l.NextLSN(); lsn += forceBatch {
		l.Force(lsn)
	}
	u.forceRec.ns = float64(time.Since(t0)) / float64(l.ForcedLSN()-first)
	n := 0
	t0 = time.Now()
	l.Scan(1, func(wal.Record) bool { n++; return true })
	u.scanRec.ns = float64(time.Since(t0)) / float64(n)

	// buffer: Fetch of a resident page.
	if u.fetchHit, err = timeCalls(db, microbenchIters, func(int) error { return db.BM.Fetch(1, rid.Page) }); err != nil {
		return u, err
	}

	// lock: an uncontended Acquire + Release pair (lock logging included).
	tid := wal.MakeTxnID(1, 1<<40)
	name := lock.NameOfRID(rid)
	if u.lockPair, err = timeCalls(db, microbenchIters, func(int) error {
		if ok, err := db.Locks.Acquire(1, tid, name, lock.Exclusive); err != nil || !ok {
			return fmt.Errorf("uncontended acquire: granted=%v err=%v", ok, err)
		}
		return db.Locks.Release(1, tid, name)
	}); err != nil {
		return u, err
	}

	// recovery: engine-level calls with the record lock already held.
	mgr := txn.NewManager(db)
	tx, err := mgr.Begin(1)
	if err != nil {
		return u, err
	}
	if err := tx.Write(rid, buf); err != nil {
		return u, err
	}
	if u.update, err = timeCalls(db, microbenchIters, func(i int) error {
		return db.Update(1, tx.ID(), rid, []byte{byte(i), 7, 7, 7})
	}); err != nil {
		return u, err
	}
	if u.read, err = timeCalls(db, microbenchIters, func(int) error { _, err := db.Read(1, rid); return err }); err != nil {
		return u, err
	}
	if err := tx.Abort(); err != nil {
		return u, err
	}
	// Begin + Commit of a transaction with commitProbeWrite updates, the
	// updates' own cost taken out.
	c, err := timeCalls(db, microbenchIters/commitProbeWrite, func(i int) error {
		id, err := db.Begin(1)
		if err != nil {
			return err
		}
		for k := 0; k < commitProbeWrite; k++ {
			if err := db.Update(1, id, liveRID(sp.private[1][k]), []byte{byte(i), byte(k), 7, 7}); err != nil {
				return err
			}
		}
		return db.Commit(1, id)
	})
	if err != nil {
		return u, err
	}
	u.commit = unitCost{
		ns:        c.ns - commitProbeWrite*u.update.ns,
		reads:     c.reads - commitProbeWrite*u.update.reads,
		writes:    c.writes - commitProbeWrite*u.update.writes,
		lineLocks: c.lineLocks - commitProbeWrite*u.update.lineLocks,
		appends:   c.appends - commitProbeWrite*u.update.appends,
		fetches:   c.fetches - commitProbeWrite*u.update.fetches,
	}
	// A commit forces what its transaction appended.
	u.commit.forcedRecs = c.appends
	return u, nil
}

// self is a call's own time: its cost minus what its lower-layer calls cost
// when made directly.
func (u unitCosts) self(c unitCost) float64 {
	return c.ns - u.machineNS(c) - c.appends*u.append.ns - c.forcedRecs*u.forceRec.ns - c.fetches*u.fetchSelf()
}

func (u unitCosts) machineNS(c unitCost) float64 {
	return c.reads*u.readLocal.ns + c.writes*u.writeLocal.ns + c.lineLocks*u.lineLock.ns
}

func (u unitCosts) fetchSelf() float64 { return u.fetchHit.ns - u.machineNS(u.fetchHit) }

// budget is the share of the forward round's total transaction time each
// layer's own work explains: its counts times its direct unit costs, lower
// layers' time taken out. What is left is txn.residue_frac.
type budget struct {
	machine, wal, buffer, lock, recovery, residue float64
}

func (u unitCosts) budget(c layerCounts, reads int, totalTxnNS float64) budget {
	m := c.mach
	var b budget
	b.machine = float64(m.Reads)*u.readLocal.ns + float64(m.Writes)*u.writeLocal.ns +
		float64(m.LineLockAcquires)*u.lineLock.ns +
		float64(m.RemoteFetches)*(u.migrate.ns-u.writeLocal.ns)
	// Every appended record is forced once, by a commit or an LBM force.
	b.wal = float64(c.walAppends) * (u.append.ns + u.forceRec.ns)
	b.buffer = float64(c.buf.Fetches) * u.fetchSelf()
	b.lock = float64(c.lock.Acquires) * u.self(u.lockPair)
	b.recovery = float64(c.rec.Updates)*u.self(u.update) + float64(reads)*u.self(u.read) +
		float64(c.rec.Commits)*u.self(u.commit)
	for _, p := range []*float64{&b.machine, &b.wal, &b.buffer, &b.lock, &b.recovery} {
		*p /= totalTxnNS
	}
	b.residue = 1 - (b.machine + b.wal + b.buffer + b.lock + b.recovery)
	return b
}
