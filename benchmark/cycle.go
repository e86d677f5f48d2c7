package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smdb/internal/buffer"
	"smdb/internal/lock"
	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/recovery"
)

// variant selects what a cycle adds to the plain untraced, sequential one.
type variant int

const (
	plain    variant = iota
	traced           // spans around the benchmark's calls, observer on Recover
	parallel         // Recover at RecoveryWorkers = parWorkers(), untraced
)

// layerCounts are the before/after deltas of every layer's counters across
// the forward round (live engine only).
type layerCounts struct {
	mach       machine.Stats
	lock       lock.Stats
	buf        buffer.Stats
	rec        recovery.Stats
	walAppends int64
	walForces  int64
	walBytes   int64
	simNS      int64 // summed node clocks, the paper's time base
}

func snapshot(db *recovery.DB) layerCounts {
	c := layerCounts{mach: db.M.Stats(), lock: db.Locks.Stats(), buf: db.BM.Stats(), rec: db.Stats()}
	for n, l := range db.Logs {
		c.walAppends += int64(l.NextLSN())
		c.walForces += l.Device().Forces()
		c.walBytes += l.Device().Size()
		c.simNS += db.M.Clock(machine.NodeID(n))
	}
	return c
}

func (c layerCounts) sub(p layerCounts) layerCounts {
	return layerCounts{
		mach: c.mach.Sub(p.mach), lock: c.lock.Sub(p.lock), buf: c.buf.Sub(p.buf), rec: c.rec.Sub(p.rec),
		walAppends: c.walAppends - p.walAppends, walForces: c.walForces - p.walForces,
		walBytes: c.walBytes - p.walBytes, simNS: c.simNS - p.simNS,
	}
}

// cycleResult is everything one cycle measured. A cycle on the reference
// engine fills in the timings only.
type cycleResult struct {
	variant variant
	setupNS int64
	hash    uint64

	// Forward round.
	fwdWallNS                             int64
	commits, attempts, failed             int
	blocked, reads, writes                int
	lat                                   []int64
	fwdCPUNS                              int64
	fwdMallocs                            uint64
	counts                                layerCounts
	spans                                 []span
	wedged                                bool
	crashNS, recoverNS, restartNS, mttrNS int64

	// Crash and restart recovery.
	retained    int
	recCPUNS    int64
	recMallocs  uint64
	rep         *recovery.RecoveryReport
	recoverErr  bool
	phaseNS     map[string]int64
	ckptNS      int64
	ckptFlushes int64
	incorrect   []string // correctness failures; any entry fails the run
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// parWorkers is the fan-out of the parallel-recovery variant. On one core it
// still runs two workers, so the metric is always reported; it means
// something only when GOMAXPROCS >= 2 (the result records it).
func parWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	if w < 2 {
		w = 2
	}
	return w
}

// stamped is one shadow entry: the value a committed transaction wrote and
// the order stamp it took while still holding the record's exclusive lock.
// Exclusive locks serialise a record's writers, so the committed write with
// the highest stamp is the record's last committed value.
type stamped struct {
	stamp uint64
	val   [4]byte
}

type pendingWrite struct {
	idx int
	stamped
}

// cycleEnv is what the clients of one forward round share.
type cycleEnv struct {
	eng      engine
	sp       space
	traced   bool
	start    time.Time
	stamp    atomic.Uint64
	progress atomic.Int64 // commits so far; the watchdog's liveness signal
	stop     atomic.Bool  // set by the watchdog: blocked clients give up
}

var errWedged = errors.New("benchmark: round aborted by the watchdog")

// client is one closed-loop load generator goroutine: it issues its next
// transaction only after the previous one returned.
type client struct {
	nodes   []int
	shadow  []stamped
	pending []pendingWrite
	lat     []int64
	spans   []span
	endNS   int64
	val     [4]byte

	commits, attempts, failed, blocked, reads, writes int
	errs                                              []string
}

func (c *client) span(env *cycleEnv, parent int32, o opKind, nd int, s time.Time) {
	c.spans = append(c.spans, span{Parent: parent, Op: o, Node: uint8(nd),
		Start: int64(s.Sub(env.start)), Dur: int64(time.Since(s))})
}

// run drives the client's nodes in rotation until each has run its quota.
func (c *client) run(env *cycleEnv, streams [][]txnOps) {
	for t := range streams[c.nodes[0]] {
		for _, nd := range c.nodes {
			c.runTxn(env, nd, t, &streams[nd][t])
			if env.stop.Load() {
				c.endNS = int64(time.Since(env.start))
				return
			}
		}
	}
	c.endNS = int64(time.Since(env.start))
}

// runTxn runs one transaction to commit, retrying deadlock victims.
func (c *client) runTxn(env *cycleEnv, nd, t int, ops *txnOps) {
	t0 := time.Now()
	root := int32(-1)
	if env.traced {
		root = int32(len(c.spans))
		c.spans = append(c.spans, span{Parent: -1, Op: opTxn, Node: uint8(nd), Start: int64(t0.Sub(env.start))})
	}
	for a := 0; a < maxAttempts; a++ {
		c.attempts++
		committed, err := c.attempt(env, nd, t, ops, root)
		if err != nil {
			c.failed++
			if !errors.Is(err, errWedged) {
				c.errs = append(c.errs, fmt.Sprintf("node %d txn %d: %v", nd, t, err))
			}
			return
		}
		if committed {
			d := int64(time.Since(t0))
			c.lat = append(c.lat, d)
			if root >= 0 {
				c.spans[root].Dur = d
			}
			c.commits++
			env.progress.Add(1)
			return
		}
	}
	c.failed++ // exhausted its deadlock retries
}

// attempt is one try at a transaction. It returns false, nil for a deadlock
// victim (already aborted).
func (c *client) attempt(env *cycleEnv, nd, t int, ops *txnOps, root int32) (bool, error) {
	var s time.Time
	if env.traced {
		s = time.Now()
	}
	tx, err := env.eng.begin(nd)
	if env.traced {
		c.span(env, root, opBegin, nd, s)
	}
	if err != nil {
		return false, err
	}
	c.pending = c.pending[:0]
	for o := range ops {
		op := ops[o]
		// In a field of the heap-allocated client: a local would escape
		// through the engine interface and cost an allocation per operation.
		c.val = value(nd, t, o)
		val := &c.val
		for {
			if env.traced {
				s = time.Now()
			}
			if op.read {
				err = tx.read(op.rid)
			} else {
				err = tx.write(op.rid, val[:])
			}
			if env.traced {
				k := opWrite
				if op.read {
					k = opRead
				}
				c.span(env, root, k, nd, s)
			}
			if err != errBlocked {
				break
			}
			c.blocked++
			if env.stop.Load() {
				return false, errWedged
			}
			runtime.Gosched()
		}
		switch {
		case err == nil:
		case err == errDeadlock:
			if env.traced {
				s = time.Now()
			}
			err = tx.abort()
			if env.traced {
				c.span(env, root, opAbort, nd, s)
			}
			return false, err
		default:
			return false, err
		}
		if op.read {
			c.reads++
		} else {
			c.writes++
			c.pending = append(c.pending, pendingWrite{env.sp.index(op.rid), stamped{env.stamp.Add(1), c.val}})
		}
	}
	if env.traced {
		s = time.Now()
	}
	err = tx.commit()
	if env.traced {
		c.span(env, root, opCommit, nd, s)
	}
	if err != nil {
		return false, err
	}
	for _, p := range c.pending {
		c.shadow[p.idx] = p.stamped
	}
	return true, nil
}

// watch returns true when done closes, false as soon as progress has not
// moved for limit (checked every tick).
func watch(progress *atomic.Int64, done <-chan struct{}, limit, tick time.Duration) bool {
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last, lastMove := progress.Load(), time.Now()
	for {
		select {
		case <-done:
			return true
		case <-ticker.C:
			if p := progress.Load(); p != last {
				last, lastMove = p, time.Now()
			} else if time.Since(lastMove) >= limit {
				return false
			}
		}
	}
}

// inflight is one transaction left open across the crash.
type inflight struct {
	tx     txHandle
	writes []pendingWrite
}

// runCycle runs one full cycle on a fresh DB of one side: set-up, the timed
// forward round, the timed crash / restart recovery / node restart / probe
// commit, and, on the live engine, the correctness checks. wedge writes the
// watchdog's dump.
func runCycle(w workloadDef, s side, clients int, seed int64, v variant, wedge func(engine)) (*cycleResult, error) {
	res := &cycleResult{variant: v}

	// Set-up, untimed but reported as setup_s.
	t0 := time.Now()
	workers := 0
	if v == parallel {
		workers = parWorkers()
	}
	eng, err := newEngine(s, w.Proto, workers)
	if err != nil {
		return nil, err
	}
	if err := eng.seed(); err != nil {
		return nil, err
	}
	le, _ := eng.(*liveEngine) // nil on the reference side
	sp := newSpace(eng.slotsPerPage())
	streams := genStreams(w, sp, seed)
	res.hash = streamHash(streams)
	env := &cycleEnv{eng: eng, sp: sp, traced: v == traced}
	cl := make([]*client, clients)
	for i := range cl {
		cl[i] = &client{shadow: make([]stamped, sp.records()), lat: make([]int64, 0, nodes*w.TxnsPerNode)}
		for n := i; n < nodes; n += clients {
			cl[i].nodes = append(cl[i].nodes, n)
		}
		if env.traced {
			cl[i].spans = make([]span, 0, len(cl[i].nodes)*w.TxnsPerNode*(opsPerTxn+3))
		}
	}
	runtime.GC()
	res.setupNS = int64(time.Since(t0))

	// Forward round.
	var before layerCounts
	if le != nil {
		before = snapshot(le.db)
	}
	m0, c0 := mallocs(), cpuNS()
	env.start = time.Now()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, c := range cl {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(env, streams)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	if !watch(&env.progress, done, wedgeLimitSecs*time.Second, time.Second) {
		wedge(eng)
		env.stop.Store(true)
		// Blocked clients see the flag at their next retry. One stuck inside
		// the engine never will; the run fails either way, so do not hang on
		// it (and do not read the clients' counters under it).
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
		// Every uncommitted transaction of a killed round counts as failed.
		res.wedged = true
		res.failed = nodes*w.TxnsPerNode - int(env.progress.Load())
		res.incorrect = append(res.incorrect, fmt.Sprintf("round wedged: no commit progress for %d s", wedgeLimitSecs))
		return res, nil
	}
	res.fwdCPUNS = cpuNS() - c0
	res.fwdMallocs = mallocs() - m0
	if le != nil {
		res.counts = snapshot(le.db).sub(before)
	}
	shadow := seedShadow(sp)
	for _, c := range cl {
		if c.endNS > res.fwdWallNS {
			res.fwdWallNS = c.endNS
		}
		res.commits += c.commits
		res.attempts += c.attempts
		res.failed += c.failed
		res.blocked += c.blocked
		res.reads += c.reads
		res.writes += c.writes
		res.lat = append(res.lat, c.lat...)
		res.incorrect = append(res.incorrect, c.errs...)
		for i, e := range c.shadow {
			if e.stamp > shadow[i].stamp {
				shadow[i] = e
			}
		}
		base := int32(len(res.spans))
		for _, s := range c.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			res.spans = append(res.spans, s)
		}
	}
	// Leave transactions open on every node, then crash one node.
	open := make([][]inflight, nodes)
	for n := 0; n < nodes; n++ {
		for k := 0; k < inflightPerNode; k++ {
			tx, err := eng.begin(n)
			if err != nil {
				return nil, err
			}
			f := inflight{tx: tx}
			for i := 0; i < inflightWrites; i++ {
				r := sp.private[n][k*inflightWrites+i]
				val := value(n, w.TxnsPerNode+k, i)
				if err := tx.write(r, val[:]); err != nil {
					return nil, fmt.Errorf("in-flight write on node %d: %w", n, err)
				}
				f.writes = append(f.writes, pendingWrite{sp.index(r), stamped{env.stamp.Add(1), val}})
			}
			open[n] = append(open[n], f)
		}
	}
	res.retained = eng.retained()
	if w.SingleClient && res.retained < minRetained {
		res.incorrect = append(res.incorrect, fmt.Sprintf("backlog retains %d WAL records, want >= %d", res.retained, minRetained))
	}
	var sink *phaseSink
	if v == traced {
		sink = &phaseSink{}
		o := obs.NewWithCapacity(256)
		o.SetSink(sink)
		le.db.AttachObserver(o)
	}
	runtime.GC()
	m0, c0 = mallocs(), cpuNS()
	tCrash := time.Now()
	eng.crash(crashNode)
	tRecover := time.Now()
	aborted, err := eng.recover(crashNode)
	tRestart := time.Now()
	res.recCPUNS = cpuNS() - c0
	res.recMallocs = mallocs() - m0
	res.crashNS = int64(tRecover.Sub(tCrash))
	res.recoverNS = int64(tRestart.Sub(tRecover))
	if err != nil {
		res.recoverErr = true
		res.incorrect = append(res.incorrect, fmt.Sprintf("Recover: %v", err))
		return res, nil
	}
	if sink != nil {
		res.phaseNS = sink.durations(tRecover.UnixNano())
	}
	if err := eng.restartNode(crashNode); err != nil {
		return nil, err
	}
	tProbe := time.Now()
	res.restartNS = int64(tProbe.Sub(tRestart))
	probe, err := eng.begin(crashNode)
	if err != nil {
		return nil, err
	}
	probeRID := sp.private[crashNode][len(sp.private[crashNode])-1]
	probeVal := value(crashNode, w.TxnsPerNode+inflightPerNode, 0)
	if err := probe.write(probeRID, probeVal[:]); err != nil {
		return nil, fmt.Errorf("probe write: %w", err)
	}
	if err := probe.commit(); err != nil {
		return nil, fmt.Errorf("probe commit: %w", err)
	}
	res.mttrNS = int64(time.Since(tCrash))
	if le == nil {
		// The reference engine is the yardstick, not the subject: its
		// timings are all the pass needs.
		return res, nil
	}
	res.rep = le.rep
	shadow[sp.index(probeRID)] = stamped{env.stamp.Add(1), probeVal}
	if sink != nil {
		le.db.AttachObserver(nil)
	}

	// Correctness. Recovery must abort exactly the crashed node's open
	// transactions (zero unnecessary aborts), IFA must hold, and every
	// record must read back as the client-side shadow says.
	var want []uint64
	for _, f := range open[crashNode] {
		want = append(want, f.tx.id())
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(aborted) != fmt.Sprint(want) {
		res.incorrect = append(res.incorrect, fmt.Sprintf("recovery aborted %v, want exactly %v", aborted, want))
	}
	for _, s := range eng.checkIFA() {
		res.incorrect = append(res.incorrect, "IFA: "+s)
	}
	for n := 0; n < nodes; n++ {
		if n == crashNode {
			continue
		}
		for _, f := range open[n] {
			if err := f.tx.commit(); err != nil {
				res.incorrect = append(res.incorrect, fmt.Sprintf("survivor commit on node %d: %v", n, err))
				continue
			}
			for _, p := range f.writes {
				shadow[p.idx] = p.stamped
			}
		}
	}
	for _, s := range eng.verifyDurability() {
		res.incorrect = append(res.incorrect, "durability: "+s)
	}
	for p := 0; p < pages; p++ {
		for s := 0; s < sp.slotsPerPage; s++ {
			r := rid{int32(p), uint16(s)}
			data, err := eng.read(r)
			if err != nil {
				res.incorrect = append(res.incorrect, fmt.Sprintf("%v unreadable: %v", r, err))
				continue
			}
			if want := shadow[sp.index(r)].val; len(data) < 4 || [4]byte(data[:4]) != want {
				res.incorrect = append(res.incorrect, fmt.Sprintf("%v reads %v, shadow has %v", r, data, want))
			}
		}
	}

	// A quiescent checkpoint, for buffer.checkpoint_ms.
	flushes := le.db.BM.Stats().Flushes
	tc := time.Now()
	if err := eng.checkpoint(); err != nil {
		res.incorrect = append(res.incorrect, fmt.Sprintf("checkpoint: %v", err))
	}
	res.ckptNS = int64(time.Since(tc))
	res.ckptFlushes = le.db.BM.Stats().Flushes - flushes
	return res, nil
}

// seedShadow is the shadow of what workload.Seed commits.
func seedShadow(sp space) []stamped {
	sh := make([]stamped, sp.records())
	for p := 0; p < pages; p++ {
		for s := 0; s < sp.slotsPerPage; s++ {
			sh[p*sp.slotsPerPage+s].val = [4]byte{1, byte(p), byte(s), 0}
		}
	}
	return sh
}

// phaseSink keeps the host-time stamp the observer puts on every recovery
// phase boundary.
type phaseSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (p *phaseSink) OnEvent(e obs.Event) {
	if e.Kind != obs.KindPhase {
		return
	}
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

// durations turns phase-end stamps into host time per phase, starting at
// Recover's entry.
func (p *phaseSink) durations(startWall int64) map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64)
	prev := startWall
	for _, e := range p.events {
		if e.Phase != obs.PhaseFreeze {
			out[e.Phase.String()] += e.Wall - prev
		}
		prev = e.Wall
	}
	return out
}
