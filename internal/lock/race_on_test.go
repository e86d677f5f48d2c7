//go:build race

package lock

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random share of what it is handed, so allocation counts of pooled paths
// are not meaningful.
const raceEnabled = true
