//go:build race

package recovery

// raceEnabled reports that the race detector is on: allocation counts are
// then not meaningful.
const raceEnabled = true
