package machine

// CostModel gives the simulated duration, in nanoseconds, of the primitive
// operations of the machine and of the storage devices attached to it. The
// defaults are calibrated to mid-1990s shared-memory multiprocessor and disk
// hardware so that the shapes reported in the paper hold; in particular the
// line-lock figures of section 5.1 (mean acquisition < 10 us under low
// contention, < 40 us with 32 processors contending for one line) fall out
// of LineLockLocal/LineLockRemote plus the queueing behaviour of GetLine.
type CostModel struct {
	// ReadLocal is a load hitting the local cache.
	ReadLocal int64
	// WriteLocal is a store to a line already exclusive locally.
	WriteLocal int64
	// RemoteFetch is fetching a line from another node's cache (read or
	// write miss serviced by the interconnect).
	RemoteFetch int64
	// InvalidatePerSharer is the added cost, per remote sharer, of an
	// invalidation round.
	InvalidatePerSharer int64
	// BroadcastPerSharer is the added cost, per remote sharer, of a
	// write-broadcast update.
	BroadcastPerSharer int64
	// LineLockLocal is acquiring an uncontended line lock on a line
	// already exclusive in the local cache.
	LineLockLocal int64
	// LineLockRemote is acquiring an uncontended line lock on a line that
	// must first be fetched into the local cache.
	LineLockRemote int64
	// LineLockRelease is releasing a line lock.
	LineLockRelease int64
	// DiskRead and DiskWrite are one page of stable-database I/O.
	DiskRead, DiskWrite int64
	// LogForce is forcing the tail of a node's log to the stable log
	// device (rotational disk).
	LogForce int64
	// LogForceNVRAM is the same force when the log device is battery-backed
	// RAM (the section 7 discussion of making Stable LBM practical).
	LogForceNVRAM int64
	// MessageRoundTrip is one request/reply exchange between nodes through
	// the operating system, used by the shared-disk-style message-passing
	// lock manager baseline (the cost SM locking eliminates).
	MessageRoundTrip int64
}

// DefaultCostModel returns the calibrated defaults described above.
func DefaultCostModel() CostModel {
	return CostModel{
		ReadLocal:           100,        // 0.1 us
		WriteLocal:          150,        // 0.15 us
		RemoteFetch:         2_000,      // 2 us interconnect fetch
		InvalidatePerSharer: 300,        // 0.3 us per sharer invalidation
		BroadcastPerSharer:  400,        // 0.4 us per sharer update
		LineLockLocal:       800,        // 0.8 us: gsp on a locally held line
		LineLockRemote:      1_000,      // 1 us: gsp including the ring transfer
		LineLockRelease:     200,        // 0.2 us: rsp
		DiskRead:            10_000_000, // 10 ms
		DiskWrite:           10_000_000, // 10 ms
		LogForce:            8_000_000,  // 8 ms rotational force
		LogForceNVRAM:       25_000,     // 25 us NVRAM force
		MessageRoundTrip:    500_000,    // 0.5 ms OS-level IPC round trip
	}
}

func (c *CostModel) setDefaults() {
	d := DefaultCostModel()
	if c.ReadLocal == 0 {
		c.ReadLocal = d.ReadLocal
	}
	if c.WriteLocal == 0 {
		c.WriteLocal = d.WriteLocal
	}
	if c.RemoteFetch == 0 {
		c.RemoteFetch = d.RemoteFetch
	}
	if c.InvalidatePerSharer == 0 {
		c.InvalidatePerSharer = d.InvalidatePerSharer
	}
	if c.BroadcastPerSharer == 0 {
		c.BroadcastPerSharer = d.BroadcastPerSharer
	}
	if c.LineLockLocal == 0 {
		c.LineLockLocal = d.LineLockLocal
	}
	if c.LineLockRemote == 0 {
		c.LineLockRemote = d.LineLockRemote
	}
	if c.LineLockRelease == 0 {
		c.LineLockRelease = d.LineLockRelease
	}
	if c.DiskRead == 0 {
		c.DiskRead = d.DiskRead
	}
	if c.DiskWrite == 0 {
		c.DiskWrite = d.DiskWrite
	}
	if c.LogForce == 0 {
		c.LogForce = d.LogForce
	}
	if c.LogForceNVRAM == 0 {
		c.LogForceNVRAM = d.LogForceNVRAM
	}
	if c.MessageRoundTrip == 0 {
		c.MessageRoundTrip = d.MessageRoundTrip
	}
}
