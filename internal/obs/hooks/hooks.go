// Package hooks is the one attach point between the engine and its optional
// observability consumers. A Set names every consumer the engine knows how
// to feed; recovery.DB.Attach publishes one with a single pointer swap. The
// engine reports by recording events on the Observer, and the Set is the
// Observer's one sink: the substrates (machine, wal, buffer, lock) through
// their one SetHooks, the protocol layer (internal/recovery, internal/txn) its
// transaction lifecycle, operation brackets, attributed waits and restart
// recovery's progress. The protocol layer calls directly only the model's
// three notes — NoteWrite, NoteCrash, NoteRecovered — whose lists an event
// cannot hold.
//
// A Set is immutable once attached. To change one consumer, copy the current
// set, change the field, and attach the copy.
package hooks

import (
	"smdb/internal/obs"
	"smdb/internal/obs/audit"
	"smdb/internal/obs/debt"
	"smdb/internal/obs/deps"
	"smdb/internal/obs/waterfall"
)

// Set is the consumers attached to one engine. Every field may be nil and
// every consumer's methods are nil-receiver safe, so the zero Set is the
// detached engine: a hook site costs one pointer load and one nil test.
// Nothing depends on the order the fields are assigned in.
type Set struct {
	// Observer is the event spine: tracer rings, histograms, counters.
	Observer *obs.Observer
	// Deps is the residency model (which failure domain holds which
	// transaction's uncommitted data) with the dependency explainer on top;
	// Audit is the online auditor, a reader of such a model. With both set
	// they must share one model (Audit was built over Deps); Audit alone
	// brings its own. See Model.
	Deps  *deps.Tracker
	Audit *audit.Auditor
	// Waterfall attributes each transaction's waits and Debt accounts replay
	// debt; both fold the Observer's events, so a set with either must have
	// an Observer (Attach panics otherwise).
	Waterfall *waterfall.Recorder
	Debt      *debt.Tracker
	// Flight writes a post-mortem dump of everything above on a crash.
	Flight *obs.FlightRecorder
}

// Model is the set's one residency model: Deps, or else the one Audit
// reads, or nil. It folds the events OnEvent hands it and takes the recovery
// layer's direct write/crash/recovered notifications; what it tells the
// auditor it tells it under its own lock, so an event is folded once however
// many judges are attached.
func (s *Set) Model() *deps.Tracker {
	if s.Deps != nil {
		return s.Deps
	}
	return s.Audit.Model()
}

// OnEvent hands one event to the residency model, the waterfall recorder and
// the debt tracker, in that order (Attach makes the set the Observer's sink
// only when it has one of them).
func (s *Set) OnEvent(e obs.Event) {
	s.Model().OnEvent(e)
	s.Waterfall.OnEvent(e)
	s.Debt.OnEvent(e)
}

// Sources is what the introspection server and the flight recorder render
// for this set. An absent consumer is an absent (nil interface) source, so
// its endpoints report {"enabled": false} and its dump files are omitted.
func (s *Set) Sources() obs.Sources {
	src := obs.Sources{Observer: s.Observer}
	if s.Deps != nil {
		src.Graph = s.Deps
	}
	if s.Audit != nil {
		src.Audit = s.Audit
	}
	if s.Waterfall != nil {
		src.Waterfall = s.Waterfall
	}
	if s.Debt != nil {
		src.Debt = s.Debt
	}
	return src
}
