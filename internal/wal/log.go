package wal

import (
	"sync"

	"smdb/internal/machine"
	"smdb/internal/obs"
	"smdb/internal/storage"
)

// Log is one node's write-ahead log: a stable prefix on the node's log
// device and a volatile tail in the node's cache. Appends are volatile;
// Force moves the tail (up to a chosen LSN) to the device in one physical
// force. A node crash (Crash) destroys exactly the volatile tail — the
// paper's section 2 alignment assumption guarantees a node's log lines never
// migrate, so nothing else is lost and nothing of it survives elsewhere.
//
// A Log is safe for concurrent use; in the simulated system only its owning
// node appends, but recovery on other nodes reads it.
type Log struct {
	node machine.NodeID
	dev  *storage.LogDevice

	mu sync.Mutex
	// down is set by Crash and cleared by Reopen: a crashed node's CPU has
	// stopped, so nothing may append to or force its log until restart
	// (late writes by in-flight goroutines of the dead node are dropped).
	down bool
	// The n retained records live in fixed-size blocks, allocated as the
	// tail reaches them, so an append never copies earlier records: record
	// i has LSN first+i and sits at position off+i of the block list (see
	// at); the first forced of them are stable. DiscardThrough drops whole
	// blocks and moves off within the first one that stays.
	blocks   []*block
	off, n   int
	first    LSN // LSN of record 0; records below first have been discarded
	forced   int // count of stable records still retained
	redo     int // count of retained update and compensation records
	lastCkpt LSN // LSN of the most recent checkpoint record, 0 if none
	// enc is the encode buffer every device write is marshalled into; the
	// device copies what it is handed, so the buffer is reused from one
	// force to the next.
	enc []byte

	// tornBytes counts stable-tail bytes discarded because a crash tore a
	// force mid-write (repaired at NewLog/Reopen by truncating the device
	// at the last checksum-valid record).
	tornBytes int
	// ioRetries counts transient device errors retried inside Force.
	ioRetries int

	// clock is the owning node's simulated clock, fixed at construction. It
	// must be lock-free: Force can run inside a machine pre-transition
	// callback (triggered Stable LBM), where a machine stripe is already
	// held.
	clock func() int64
	// obs is the attached observer (see SetHooks), nil when detached. It
	// takes append, force and discard events under mu, so nothing it feeds
	// may call back into the log.
	obs *obs.Observer

	// pad the struct to whole 64-byte lines: the allocator then starts each
	// node's Log on a line boundary, so one node's appends (mu, n, the
	// block list) never write a line another node's Log sits on.
	_ [32]byte
}

// blockLen is the number of records in one block of a Log (about 60 KiB).
const blockLen = 512

type block [blockLen]Record

// at returns retained record i. Caller holds l.mu.
func (l *Log) at(i int) *Record {
	p := l.off + i
	return &l.blocks[p/blockLen][p%blockLen]
}

// push stores r as the next retained record. Caller holds l.mu.
func (l *Log) push(r *Record) {
	p := l.off + l.n
	if p == len(l.blocks)*blockLen {
		l.blocks = append(l.blocks, new(block))
	}
	l.blocks[p/blockLen][p%blockLen] = *r
	l.n++
	if isRedo(r) {
		l.redo++
	}
}

// isRedo reports whether r is a record a redo scan reads: an update or a
// compensation record.
func isRedo(r *Record) bool { return r.Type == TypeUpdate || r.Type == TypeCLR }

// redoIn counts the update and compensation records among retained records
// [from, to). Caller holds l.mu.
func (l *Log) redoIn(from, to int) int {
	k := 0
	l.span(from, to, func(run []Record) bool {
		for i := range run {
			if isRedo(&run[i]) {
				k++
			}
		}
		return true
	})
	return k
}

// span calls fn on retained records [from, to) one block-contiguous run at
// a time. Caller holds l.mu.
func (l *Log) span(from, to int, fn func([]Record) bool) {
	for from < to {
		p := l.off + from
		run := l.blocks[p/blockLen][p%blockLen:]
		if len(run) > to-from {
			run = run[:to-from]
		}
		if !fn(run) {
			return
		}
		from += len(run)
	}
}

// NewLog creates a log for node n backed by stable device dev. If dev
// already holds records (a restarted node), they are decoded and become the
// stable prefix; a torn tail — a partial record left by a crash mid-force —
// is truncated at the last checksum-valid record rather than failing the
// node open. What the log reports to attached consumers is stamped 0; see
// NewClockedLog.
func NewLog(n machine.NodeID, dev *storage.LogDevice) (*Log, error) {
	return NewClockedLog(n, dev, func() int64 { return 0 })
}

// NewClockedLog is NewLog for a log that stamps what it reports to attached
// consumers with clock, the owning node's simulated clock. clock must be
// safe to call with no engine lock held and from under a machine stripe
// (machine.Clock qualifies).
func NewClockedLog(n machine.NodeID, dev *storage.LogDevice, clock func() int64) (*Log, error) {
	l := &Log{node: n, dev: dev, first: 1, clock: clock}
	if dev.Size() > 0 {
		l.forced, l.tornBytes = repairTail(dev, l)
	}
	return l, nil
}

// Node returns the owning node.
func (l *Log) Node() machine.NodeID { return l.node }

// SetHooks publishes the observer the log reports to (see Log.obs). Pass nil
// to detach.
func (l *Log) SetHooks(o *obs.Observer) {
	l.mu.Lock()
	l.obs = o
	l.mu.Unlock()
}

// EncodedSize returns the bytes r's frame occupies on the stable device —
// header, type and presence mask, the non-zero fields and the non-empty
// images — without marshalling it.
func EncodedSize(r *Record) int {
	return recHeaderLen + bodyLen(r)
}

// Device returns the stable log device backing this log (for force-count
// accounting in experiments).
func (l *Log) Device() *storage.LogDevice { return l.dev }

// Append adds r to the volatile tail, assigning and returning its LSN. The
// log keeps no per-transaction state: PrevLSN is stored as the caller set it.
// Append returns LSN 0, appending nothing, while the node is down. It panics
// if an image of r is longer than MaxImage.
func (l *Log) Append(r Record) LSN {
	checkImages(&r)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return 0
	}
	r.LSN = l.first + LSN(l.n)
	if r.Type == TypeCheckpoint {
		l.lastCkpt = r.LSN
	}
	l.push(&r)
	if o := l.obs; o != nil {
		o.Record(obs.Event{Kind: obs.KindWALAppend, Node: int32(l.node), Sim: l.clock(),
			A: int64(r.LSN), B: int64(r.Type), C: int64(r.Txn), Dur: int64(EncodedSize(&r))})
	}
	return r.LSN
}

// NextLSN returns the LSN the next Append will assign.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first + LSN(l.n)
}

// ForcedLSN returns the highest stable LSN (0 if nothing is stable).
func (l *Log) ForcedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.forced == 0 {
		return l.first - 1
	}
	return l.first + LSN(l.forced) - 1
}

// Force makes all records up to and including upto stable. It returns the
// number of records written and whether a physical force (device append)
// occurred, so the caller can charge simulated log-force latency and count
// force frequency. Forcing an already-stable LSN is a no-op.
func (l *Log) Force(upto LSN) (records int, forced bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return 0, false
	}
	uptoIdx := int(upto-l.first) + 1
	if uptoIdx > l.n {
		uptoIdx = l.n
	}
	if uptoIdx <= l.forced {
		return 0, false
	}
	buf := l.encodeLocked(l.forced, uptoIdx)
	// The device can fail transiently (injected I/O faults). Retry under
	// the default policy; no simulated backoff is charged here because
	// Force may run inside a machine pre-transition callback, where the
	// machine lock (and so AdvanceClock) is off-limits. On persistent
	// failure nothing is stable and `forced` does not advance, so the
	// commit path correctly reports the commit record unforced.
	err := storage.DefaultRetry.Do(func() error {
		_, err := l.dev.Append(buf)
		return err
	}, func(attempt int, _ int64) {
		l.ioRetries++
		if o := l.obs; o != nil {
			o.Instant(obs.KindIORetry, int32(l.node), l.clock(), int64(attempt), 0)
		}
	})
	if err != nil {
		return 0, false
	}
	records = uptoIdx - l.forced
	l.forced = uptoIdx
	l.noteForce(records)
	return records, true
}

// noteForce reports a physical force that made records more records stable
// (a torn one may have landed none whole). Caller holds l.mu.
func (l *Log) noteForce(records int) {
	if o := l.obs; o != nil {
		o.Instant(obs.KindWALForce, int32(l.node), l.clock(), int64(records), int64(l.first)+int64(l.forced)-1)
	}
}

// encodeLocked marshals records [from, to) back to back into the log's reusable
// encode buffer and returns it; the bytes are valid until the next call.
// Caller holds l.mu.
func (l *Log) encodeLocked(from, to int) []byte {
	buf := l.enc[:0]
	l.span(from, to, func(run []Record) bool {
		for i := range run {
			buf = AppendMarshal(buf, &run[i])
		}
		return true
	})
	l.enc = buf
	return buf
}

// ForceTorn simulates a crash in the middle of a physical force: of the
// records that Force(upto) would have written, only a `frac` fraction of the
// encoded bytes reach the device — every whole record that fits, plus a
// partial prefix of the next (the torn tail a restart must truncate). The
// log is marked down, as the forcing node dies at this instant; the caller
// crashes the node. It returns the whole records made stable and the torn
// bytes left on the device.
func (l *Log) ForceTorn(upto LSN, frac float64) (whole, torn int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return 0, 0
	}
	uptoIdx := int(upto-l.first) + 1
	if uptoIdx > l.n {
		uptoIdx = l.n
	}
	if uptoIdx <= l.forced {
		l.down = true
		return 0, 0
	}
	buf := l.encodeLocked(l.forced, uptoIdx)
	limit := int(frac * float64(len(buf)))
	if limit >= len(buf) {
		limit = len(buf) - 1 // a torn force never completes
	}
	if limit < 0 {
		limit = 0
	}
	// The first limit bytes reach the device: every whole record that fits,
	// then a torn prefix of the next.
	out := buf[:limit]
	torn = limit
	for i := l.forced; torn >= EncodedSize(l.at(i)); i++ {
		torn -= EncodedSize(l.at(i))
		whole++
	}
	if len(out) > 0 {
		// A transient device fault can compound the torn force; retry so
		// the partial write lands, or fall back to "nothing reached the
		// device" (an even shorter tear) on persistent failure.
		err := storage.DefaultRetry.Do(func() error {
			_, err := l.dev.Append(out)
			return err
		}, func(int, int64) { l.ioRetries++ })
		if err != nil {
			whole, torn = 0, 0
		}
	}
	l.forced += whole
	l.tornBytes += torn
	l.down = true
	l.noteForce(whole)
	return whole, torn
}

// ForceAll forces the entire log.
func (l *Log) ForceAll() (records int, forced bool) {
	return l.Force(LSN(1 << 62))
}

// Crash destroys the volatile tail, as a node failure would, and returns the
// number of records lost. The log remains usable (for the node's restarted
// incarnation); its next LSN continues after the stable prefix.
func (l *Log) Crash() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = true
	lost := l.n - l.forced
	l.redo -= l.redoIn(l.forced, l.n)
	l.n = l.forced
	l.blocks = l.blocks[:(l.off+l.n+blockLen-1)/blockLen]
	// Find the checkpoint marker again among what survived.
	l.lastCkpt = 0
	l.span(0, l.n, func(run []Record) bool {
		for i := range run {
			if run[i].Type == TypeCheckpoint {
				l.lastCkpt = run[i].LSN
			}
		}
		return true
	})
	return lost
}

// Reopen re-enables the log for the node's restarted incarnation. If the
// crash tore a force mid-write, the partial record left on the device is cut
// away here (the in-memory state never counted it as stable).
func (l *Log) Reopen() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
	repairTail(l.dev, nil)
}

// repairTail reads dev in place (see stableWalk) and cuts it where its valid
// prefix ends, copying nothing. With into non-nil — a log being opened on dev
// — it also stores the prefix's records in into, LSNs from 1. It returns the
// number of records in the prefix and the torn bytes cut off.
func repairTail(dev *storage.LogDevice, into *Log) (n, torn int) {
	var w stableWalk
	dev.Walk(func(chunks [][]byte) {
		w = newStableWalk(chunks, 0)
		var r Record
		for w.next(&r) {
			if into == nil {
				continue
			}
			into.push(&r)
			if r.Type == TypeCheckpoint {
				into.lastCkpt = r.LSN
			}
		}
	})
	if w.left > 0 {
		dev.Cut(w.size)
	}
	return w.n, int(w.left)
}

// TornBytes returns the cumulative stable-tail bytes discarded because a
// crash tore a force mid-write.
func (l *Log) TornBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornBytes
}

// IORetries returns the number of transient device errors retried by forces.
func (l *Log) IORetries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioRetries
}

// LastCheckpoint returns the LSN of the most recent checkpoint record (0 if
// none). Redo scans start just after it.
func (l *Log) LastCheckpoint() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// Records returns a copy of the records with LSN >= from (use 1 for all).
// For a live node this is the whole log; after Crash it is the stable
// prefix only.
func (l *Log) Records(from LSN) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.first {
		from = l.first
	}
	idx := int(from - l.first)
	if idx >= l.n {
		return nil
	}
	out := make([]Record, 0, l.n-idx)
	l.span(idx, l.n, func(run []Record) bool {
		out = append(out, run...)
		return true
	})
	return out
}

// Each calls fn with a pointer to every record with LSN >= from (use 1 for
// all) in LSN order, stopping early if fn returns false. The whole scan runs
// under the log mutex with no copying, so fn must not call back into this
// Log — an Append/Force from inside fn would self-deadlock. fn may keep the
// pointer but not write through it: a retained record is never rewritten or
// moved. Only the slots of a volatile tail lost in a Crash are used again, by
// the next incarnation's appends, so every pointer is good until Reopen.
func (l *Log) Each(from LSN, fn func(*Record) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.first {
		from = l.first
	}
	l.span(int(from-l.first), l.n, func(run []Record) bool {
		for i := range run {
			if !fn(&run[i]) {
				return false
			}
		}
		return true
	})
}

// Scan is Each handing fn a copy of each record.
func (l *Log) Scan(from LSN, fn func(Record) bool) {
	l.Each(from, func(r *Record) bool { return fn(*r) })
}

// Get returns the record at the given LSN.
func (l *Log) Get(lsn LSN) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.first || int(lsn-l.first) >= l.n {
		return Record{}, false
	}
	return *l.at(int(lsn - l.first)), true
}

// Len returns the number of records (stable + volatile).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// RedoLen returns the number of update and compensation records among the
// retained ones — after Crash, among the stable prefix.
func (l *Log) RedoLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.redo
}

// FirstLSN returns the LSN of the oldest retained record.
func (l *Log) FirstLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// DiscardThrough reclaims log space by discarding every record with
// LSN <= upto, from memory and from the stable device (the archive is
// dropped). The caller — the checkpointer — guarantees upto is stable and
// below both the last checkpoint record and every active transaction's
// first record, so nothing recovery could ever need is lost. Out-of-range
// requests are clamped; discarding nothing is a no-op.
func (l *Log) DiscardThrough(upto LSN) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	maxStable := l.first + LSN(l.forced) - 1
	if upto > maxStable {
		upto = maxStable
	}
	drop := int(upto-l.first) + 1
	if drop <= 0 {
		return 0
	}
	l.redo -= l.redoIn(0, drop)
	l.off += drop
	l.n -= drop
	l.blocks = append([]*block(nil), l.blocks[l.off/blockLen:]...)
	l.off %= blockLen
	l.first = upto + 1
	l.forced -= drop
	// Re-encode the retained stable prefix onto the device.
	l.dev.Truncate(l.encodeLocked(0, l.forced))
	if o := l.obs; o != nil {
		o.Instant(obs.KindWALDiscard, int32(l.node), l.clock(), int64(l.first), 0)
	}
	return drop
}

// StableRecords reads the stable device once, in place — what restart
// recovery can read of a crashed node — and hands each record of its
// checksum-valid prefix, re-based to its true LSN, to keep in LSN order. A
// torn tail is ignored (Reopen cuts it). It returns the records keep reports
// true for, in LSN order, copied into a slab with room for hint of them (a
// new slab is begun should it fill, so a listed record never moves); only
// those are materialised. The record keep is handed is good for the call
// only, but its images — and a kept record's — alias the device's bytes,
// which are never written again (storage.LogDevice), so they stay valid
// whatever the log and the device do later. keep runs under the log and
// device mutexes and must not call back into either.
func (l *Log) StableRecords(hint int, keep func(*Record) bool) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Record, 0, hint)
	l.dev.Walk(func(chunks [][]byte) {
		w := newStableWalk(chunks, l.first-1)
		// Each record is decoded into the slab's next free slot, which a
		// kept record then takes: one slot past hint is the scratch of the
		// records that follow the last kept one.
		slab := make([]Record, 0, hint+1)
		for {
			if len(slab) == cap(slab) {
				slab = make([]Record, 0, max(len(out), 64))
			}
			r := &slab[:len(slab)+1][len(slab)]
			if !w.next(r) {
				return
			}
			if keep(r) {
				slab = slab[:len(slab)+1]
				out = append(out, r)
			}
		}
	})
	return out
}
