package main

import "errors"

// The benchmark drives two engines with the same code: the live one
// (smdb/internal, what a PR changes) and the reference one (refengine/, a
// frozen copy, see its doc.go). engine and txHandle are what the cycle needs
// of either; engine_live.go and engine_ref.go adapt them.

// rid names a record: page and slot.
type rid struct {
	page int32
	slot uint16
}

var (
	errBlocked  = errors.New("benchmark: lock wait, retry the call")
	errDeadlock = errors.New("benchmark: deadlock victim")
)

type engine interface {
	slotsPerPage() int
	// seed inserts every record (value {1, page, slot}) and checkpoints.
	seed() error
	begin(node int) (txHandle, error)
	retained() int // WAL records held across all logs
	crash(node int)
	// recover runs restart recovery for the crashed node and returns the
	// transactions it aborted, sorted.
	recover(node int) ([]uint64, error)
	restartNode(node int) error
	checkIFA() []string
	verifyDurability() []string
	// read returns a record's committed bytes, nil if the slot is empty.
	read(r rid) ([]byte, error)
	checkpoint() error
}

// txHandle is one transaction. read and write return errBlocked for a lock
// wait and errDeadlock for a deadlock victim.
type txHandle interface {
	id() uint64
	read(r rid) error
	write(r rid, val []byte) error
	commit() error
	abort() error
}

// side says which engine a cycle runs on.
type side int

const (
	live side = iota
	ref
)

var sideNames = [...]string{"live", "reference"}

// newEngine makes a fresh 4-node DB of the named protocol on one side.
func newEngine(s side, protocol string, recoveryWorkers int) (engine, error) {
	if s == ref {
		return newRefEngine(protocol, recoveryWorkers)
	}
	return newLiveEngine(protocol, recoveryWorkers)
}
