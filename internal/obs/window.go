package obs

import (
	"cmp"
	"slices"
	"sort"
)

// The sim-time window series the observability consumers keep a bounded
// recent history in — the auditor's time series, the debt tracker's windows,
// the waterfall recorder's per-window slowest transactions — and the bounded
// log their watchdogs record findings in.

// WindowRing is a series of fixed-width simulated-time windows holding one
// payload of type T each, in a ring of n slots. The window holding sim has
// id sim / width (a negative sim counts as 0) and lives in slot id mod n
// until a newer id takes the slot, so the newest n ids are always resident
// and, when ids are sparse, older ones stay until evicted. An event for an id
// whose slot holds a newer one is dropped (At returns nil): the nodes'
// simulated clocks are only loosely aligned, so stragglers happen.
//
// When a newer id arrives, the close hook runs on every resident window
// older than it that it has not yet run on, in id order, before the new one
// opens: the window that was the newest, one a straggler opened behind it,
// and — however far ahead the newer id is — one whose slot the newer id is
// about to take. So every window is closed exactly once, unless it is still
// the newest or a straggler opened it behind the newest id and no newer id
// has come since; a straggler's event in a window already closed counts but
// does not close it again. A WindowRing is not safe for concurrent use: its
// consumer holds it under its own lock.
type WindowRing[T any] struct {
	width   int64
	slots   []windowSlot[T]
	newest  int64 // -1 before the first event
	onClose func(id int64, w *T)
	// due is the scratch list of the slots an advance closes, sorted by id,
	// kept from one advance to the next.
	due []int
}

type windowSlot[T any] struct {
	id     int64 // -1 while unused
	closed bool  // the close hook has run on this window
	w      T
}

// NewWindowRing returns an empty series of n windows width simulated ns
// wide; onClose may be nil.
func NewWindowRing[T any](width int64, n int, onClose func(id int64, w *T)) *WindowRing[T] {
	r := &WindowRing[T]{width: width, slots: make([]windowSlot[T], n), newest: -1, onClose: onClose}
	for i := range r.slots {
		r.slots[i].id = -1
	}
	return r
}

// At returns the window holding sim, opening it with a zero payload if it is
// not resident, or nil if a newer id holds its slot.
func (r *WindowRing[T]) At(sim int64) *T {
	id := max(sim, 0) / r.width
	n := int64(len(r.slots))
	if id > r.newest {
		if r.onClose != nil {
			r.closeBefore(id)
		}
		r.newest = id
	}
	s := &r.slots[id%n]
	if s.id > id {
		return nil
	}
	if s.id != id {
		*s = windowSlot[T]{id: id}
	}
	return &s.w
}

// closeBefore runs the close hook on every resident window older than id it
// has not yet run on, in id order.
func (r *WindowRing[T]) closeBefore(id int64) {
	due := r.due[:0]
	for i := range r.slots {
		if s := &r.slots[i]; s.id >= 0 && s.id < id && !s.closed {
			due = append(due, i)
		}
	}
	slices.SortFunc(due, func(a, b int) int { return cmp.Compare(r.slots[a].id, r.slots[b].id) })
	for _, i := range due {
		s := &r.slots[i]
		s.closed = true
		r.onClose(s.id, &s.w)
	}
	r.due = due
}

// Newest returns the newest window and its id (nil and -1 before the first
// event).
func (r *WindowRing[T]) Newest() (int64, *T) {
	if r.newest < 0 {
		return -1, nil
	}
	return r.newest, &r.slots[r.newest%int64(len(r.slots))].w
}

// Each calls fn on every resident window, oldest first.
func (r *WindowRing[T]) Each(fn func(id int64, w *T)) {
	used := make([]*windowSlot[T], 0, len(r.slots))
	for i := range r.slots {
		if r.slots[i].id >= 0 {
			used = append(used, &r.slots[i])
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i].id < used[j].id })
	for _, s := range used {
		fn(s.id, &s.w)
	}
}

// Len returns how many windows are resident.
func (r *WindowRing[T]) Len() int {
	k := 0
	for i := range r.slots {
		if r.slots[i].id >= 0 {
			k++
		}
	}
	return k
}

// maxAnomalies bounds the findings an AnomalyLog retains.
const maxAnomalies = 64

// Anomaly is one watchdog finding about one window.
type Anomaly struct {
	Window int64  `json:"window"`
	Sim    int64  `json:"sim"` // the window's start, simulated ns
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// AnomalyLog is a watchdog's findings: the first 64 retained, every one
// counted.
type AnomalyLog struct {
	list  []Anomaly
	total int
}

// Add records one finding.
func (l *AnomalyLog) Add(a Anomaly) {
	l.total++
	if len(l.list) < maxAnomalies {
		l.list = append(l.list, a)
	}
}

// List returns a copy of the retained findings (nil when there are none).
func (l *AnomalyLog) List() []Anomaly { return append([]Anomaly(nil), l.list...) }

// Total returns how many findings were recorded, retained or not.
func (l *AnomalyLog) Total() int { return l.total }
