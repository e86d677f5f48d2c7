// Package storage simulates the stable storage of the shared-memory database
// system: a set of shared disks holding the stable database (pages) and one
// stable log device per node. In the paper's system model (figure 1) every
// node is connected to all disks; stable storage survives any number of node
// crashes. Latency is charged by the callers (buffer manager, log manager)
// to the simulated per-node clocks using the machine's cost model; this
// package only stores bytes and counts I/O.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a page of the stable database.
type PageID int32

// NoPage is the null page identifier.
const NoPage PageID = -1

// ErrNoPage reports a read of a page that has never been written.
var ErrNoPage = errors.New("storage: page has never been written")

// ErrTransient reports a transient I/O error (injected by the fault engine;
// on real hardware a recoverable bus/controller fault). Callers should retry
// with backoff; the fault engine bounds consecutive failures so bounded
// retries always succeed.
var ErrTransient = errors.New("storage: transient I/O error")

// FaultFunc is consulted before each storage operation; a non-nil return
// fails the operation. The op string names the operation ("read", "write",
// "append"). Installed via SetFault; nil disables injection.
type FaultFunc func(op string) error

// RetryPolicy bounds and paces retries of transient storage errors.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first try included).
	MaxAttempts int
	// BackoffNanos is the simulated-time delay charged before the first
	// retry; it doubles on each subsequent one.
	BackoffNanos int64
}

// DefaultRetry is the policy used by the buffer and log managers. Its six
// attempts comfortably exceed the fault engine's default I/O-error burst
// bound of two, so injected transient errors never become permanent.
var DefaultRetry = RetryPolicy{MaxAttempts: 6, BackoffNanos: 20_000}

// Backoff returns the simulated delay before retry attempt (1-based count of
// failures so far), doubling per attempt.
func (p RetryPolicy) Backoff(attempt int) int64 {
	d := p.BackoffNanos
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// Do runs op until it succeeds, fails with something other than ErrTransient,
// or has been tried MaxAttempts times, and returns op's last result. Before
// each retry it calls onRetry with the number of failures so far and the
// simulated backoff that retry is due — the caller charges it to a node's
// clock if its context allows (a log force may run under a machine stripe,
// where it cannot) and does its own counting there.
func (p RetryPolicy) Do(op func() error, onRetry func(attempt int, backoff int64)) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if !errors.Is(err, ErrTransient) || attempt >= p.MaxAttempts {
			return err
		}
		onRetry(attempt, p.Backoff(attempt))
	}
}

// Disk is a simulated shared disk holding fixed-size pages. It is safe for
// concurrent use.
type Disk struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	reads    int64
	writes   int64
	fault    FaultFunc
}

// NewDisk returns an empty disk with the given page size.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		panic(fmt.Sprintf("storage: page size must be positive, got %d", pageSize))
	}
	return &Disk{pageSize: pageSize, pages: make(map[PageID][]byte)}
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// SetFault installs (or with nil removes) a fault hook consulted before
// every read and write.
func (d *Disk) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

// faultCheck calls the installed hook outside d.mu (the hook takes its own
// lock and must not be invoked under ours).
func (d *Disk) faultCheck(op string) error {
	d.mu.Lock()
	f := d.fault
	d.mu.Unlock()
	if f == nil {
		return nil
	}
	return f(op)
}

// ReadPage copies page id into dst, which the caller owns and which must
// hold PageSize bytes, or fails with ErrNoPage if the page was never written.
func (d *Disk) ReadPage(id PageID, dst []byte) error {
	if err := d.faultCheck("read"); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNoPage, id)
	}
	d.reads++
	copy(dst[:d.pageSize], p)
	return nil
}

// WritePage durably stores page id. Short data is zero-padded; long data is
// rejected.
func (d *Disk) WritePage(id PageID, data []byte) error {
	if len(data) > d.pageSize {
		return fmt.Errorf("storage: page %d write of %d bytes exceeds page size %d", id, len(data), d.pageSize)
	}
	if err := d.faultCheck("write"); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := make([]byte, d.pageSize)
	copy(p, data)
	d.pages[id] = p
	d.writes++
	return nil
}

// Peek returns a copy of the n bytes at offset off of page id, nil if the
// page was never written. It is for verification, which observes the disk
// without using it: unlike ReadPage it counts no read and consults no fault
// hook.
func (d *Disk) Peek(id PageID, off, n int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.pages[id]; ok {
		return bytes.Clone(p[off : off+n])
	}
	return nil
}

// Exists reports whether page id has ever been written.
func (d *Disk) Exists(id PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.pages[id]
	return ok
}

// IOCounts returns the cumulative page reads and writes.
func (d *Disk) IOCounts() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// logChunk is the size of a LogDevice chunk, unless one append is larger.
const logChunk = 64 << 10

// LogDevice is the stable, append-only log device of one node. Forcing a
// node's volatile log tail appends its encoded records here; the contents
// survive every crash.
type LogDevice struct {
	mu sync.Mutex
	// The contents are the chunks back to back. An append is never split: it
	// goes on the end of the last chunk if all of it fits, else into a new
	// chunk of max(logChunk, its length) bytes, and the last one is left
	// short. So a force never copies earlier bytes, and a frame it wrote never
	// straddles two chunks.
	//
	// Bytes below a chunk's length are never written again: an append writes
	// past it, Truncate replaces the chunk list and Cut only shortens (and
	// seals the chunk it cuts). So a reader may keep slices of them (Walk).
	chunks [][]byte
	size   int64
	forces int64
	reads  int64
	// gen is the write generation: every write, Truncate and Cut that
	// changes the contents bumps it, so a reader that walked the device at
	// generation g knows the bytes are the ones it read while Gen is g.
	gen uint64
	// fault is read on every append and written almost never, and the hook
	// must run outside mu (it takes its own lock): an atomic pointer lets
	// Append take mu once.
	fault atomic.Pointer[FaultFunc]
}

// NewLogDevice returns an empty stable log device.
func NewLogDevice() *LogDevice { return &LogDevice{} }

// SetFault installs (or with nil removes) a fault hook consulted before
// every append.
func (d *LogDevice) SetFault(f FaultFunc) {
	if f == nil {
		d.fault.Store(nil)
		return
	}
	d.fault.Store(&f)
}

// Append durably appends data and returns the byte offset at which it was
// written. A transient fault fails the append with no bytes written (an
// injected torn write is modelled one level up, in wal.ForceTorn, which
// appends only a prefix).
func (d *LogDevice) Append(data []byte) (int64, error) {
	if f := d.fault.Load(); f != nil {
		if err := (*f)("append"); err != nil {
			return 0, err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	off := d.size
	d.write(data)
	d.forces++
	return off, nil
}

// write copies data, in one piece, onto the end of the chunk list. Caller
// holds d.mu.
func (d *LogDevice) write(data []byte) {
	if len(data) == 0 {
		return
	}
	d.gen++
	d.size += int64(len(data))
	last := len(d.chunks) - 1
	if last < 0 || cap(d.chunks[last])-len(d.chunks[last]) < len(data) {
		d.chunks = append(d.chunks, make([]byte, 0, max(logChunk, len(data))))
		last++
	}
	d.chunks[last] = append(d.chunks[last], data...)
}

// Size returns the number of stable bytes.
func (d *LogDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Forces returns the number of Append calls (physical log forces).
func (d *LogDevice) Forces() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.forces
}

// Reads returns the number of whole-device reads (Contents and Walk calls).
func (d *LogDevice) Reads() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

// Contents returns a copy of the entire stable log.
func (d *LogDevice) Contents() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	// Join allocates the copy without clearing it first.
	return bytes.Join(d.chunks, nil)
}

// Walk reads the entire stable log in place: it calls fn once with the
// chunks, whose contents back to back are the log, counts one read and
// returns the write generation the chunks belong to (see Gen). fn runs under
// the device mutex, so it must not call into d; it must not write to the
// chunks or keep the list, but it may keep slices of the chunks' bytes,
// which are never written again.
func (d *LogDevice) Walk(fn func(chunks [][]byte)) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	fn(d.chunks)
	return d.gen
}

// Gen returns the device's write generation, which every write, Truncate
// and Cut that changes the contents advances: while it reads what a Walk
// returned, the contents are the bytes that walk read.
func (d *LogDevice) Gen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// Truncate replaces the device contents with keep — log-space reclamation
// after a checkpoint has archived everything older (on real hardware the
// log is a ring; here the archive is simply dropped).
func (d *LogDevice) Truncate(keep []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunks, d.size = nil, 0
	d.gen++
	d.write(keep)
}

// Cut shortens the contents to their first size bytes in place, copying
// nothing; a size at or past the end leaves them as they are. The chunk the
// cut falls in is sealed at its new length, so the next append begins a new
// chunk and no byte a reader may hold a slice of is written again.
func (d *LogDevice) Cut(size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size >= d.size {
		return
	}
	d.gen++
	d.size = max(size, 0)
	left := d.size
	for i, c := range d.chunks {
		if int64(len(c)) >= left {
			d.chunks[i] = c[:left:left]
			clear(d.chunks[i+1:])
			d.chunks = d.chunks[:i+1]
			return
		}
		left -= int64(len(c))
	}
}
