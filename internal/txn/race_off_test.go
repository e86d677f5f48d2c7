//go:build !race

package txn_test

const raceEnabled = false
