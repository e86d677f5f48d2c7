package recovery

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkPartition asserts the chunks tile [0, n) exactly: contiguous,
// in order, each non-empty.
func checkPartition(t *testing.T, chunks []chunk, n int) {
	t.Helper()
	next := 0
	for i, c := range chunks {
		if c.lo != next {
			t.Fatalf("chunk %d starts at %d, want %d (chunks %v)", i, c.lo, next, chunks)
		}
		if c.hi <= c.lo {
			t.Fatalf("chunk %d is empty or inverted: %v", i, c)
		}
		next = c.hi
	}
	if next != n {
		t.Fatalf("chunks cover [0,%d), want [0,%d): %v", next, n, chunks)
	}
}

// TestBalanceChunksPartition sweeps sizes and worker counts: every output
// must be an exact ordered partition of the index space with at most
// workers*stealGrain (or n) chunks.
func TestBalanceChunksPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 7, 8, 64, 257} {
		for _, workers := range []int{1, 2, 4, 13} {
			weights := make([]int, n)
			for i := range weights {
				weights[i] = rng.Intn(100)
			}
			for _, weight := range []func(int) int{nil, func(i int) int { return weights[i] }} {
				chunks := balanceChunks(n, workers, weight)
				checkPartition(t, chunks, n)
				if max := min(workers*stealGrain, n); len(chunks) > max {
					t.Errorf("n=%d workers=%d: %d chunks, want <= %d", n, workers, len(chunks), max)
				}
			}
		}
	}
	if got := balanceChunks(0, 4, nil); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
}

// TestBalanceChunksDeterministic pins the property the equivalence gate
// leans on: identical inputs produce identical cut points, call after call.
func TestBalanceChunksDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := make([]int, 113)
	for i := range weights {
		weights[i] = rng.Intn(1000)
	}
	w := func(i int) int { return weights[i] }
	for _, workers := range []int{1, 2, 4, 8} {
		a := balanceChunks(len(weights), workers, w)
		b := balanceChunks(len(weights), workers, w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: two calls disagree:\n  %v\n  %v", workers, a, b)
		}
	}
}

// TestBalanceChunksWeightBalance: under a heavily skewed weight vector the
// greedy cut must keep every chunk within one max-task of the running
// average — the bound that guarantees no single steal dominates the tail.
func TestBalanceChunksWeightBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, workers := 200, 4
	weights := make([]int, n)
	total, maxW := 0, 0
	for i := range weights {
		w := rng.Intn(10)
		if rng.Intn(20) == 0 {
			w = 500 + rng.Intn(500) // occasional whales
		}
		weights[i] = w
		total += w
		if w > maxW {
			maxW = w
		}
	}
	chunks := balanceChunks(n, workers, func(i int) int { return weights[i] })
	checkPartition(t, chunks, n)
	ideal := total / (workers * stealGrain)
	bound := ideal + maxW
	for _, c := range chunks {
		cw := 0
		for i := c.lo; i < c.hi; i++ {
			cw += weights[i]
		}
		if cw > bound {
			t.Errorf("chunk %v weight %d exceeds ideal+max bound %d (ideal %d, max task %d)",
				c, cw, bound, ideal, maxW)
		}
	}
}

// TestBalanceChunksZeroWeights: an all-zero weight vector must fall back to
// even index ranges rather than one giant chunk.
func TestBalanceChunksZeroWeights(t *testing.T) {
	chunks := balanceChunks(64, 4, func(int) int { return 0 })
	checkPartition(t, chunks, 64)
	if len(chunks) < 4 {
		t.Errorf("all-zero weights collapsed to %d chunks: %v", len(chunks), chunks)
	}
}
