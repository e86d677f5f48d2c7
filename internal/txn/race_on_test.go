//go:build race

package txn_test

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random share of what it is handed (the lock manager's scratch among it),
// so allocation counts are not meaningful.
const raceEnabled = true
