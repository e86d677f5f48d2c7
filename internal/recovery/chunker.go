package recovery

// Work-stealing chunk balancer for the parallel restart pipeline. The old
// fan-out handed tasks to workers one index at a time through an atomic
// counter — correct, but each handout is a cross-core cache-line bounce, and
// with per-node or per-bucket tasks of wildly different sizes the last big
// task routinely ran alone while every other worker idled (the E20 tail).
// balanceChunks instead pre-cuts the index space into contiguous,
// weight-balanced chunks several times finer than the worker count; workers
// then steal whole chunks through one atomic cursor. Big buckets split
// across enough chunk boundaries that no single steal dominates the tail,
// and small tasks amortize the handout cost.
//
// Determinism: the cut points are a pure function of (n, workers, weights) —
// no scheduling input — and the executor still records results per task
// index, so which worker ran a chunk never shows in the merge order.

// chunk is one contiguous task-index range [lo, hi).
type chunk struct{ lo, hi int }

// stealGrain is the target number of chunks per worker: fine enough to keep
// the steal queue deep (a worker stuck on a heavy chunk strands at most
// ~1/stealGrain of the total weight), coarse enough that cursor traffic
// stays negligible.
const stealGrain = 4

// balanceChunks cuts [0, n) into contiguous chunks whose weights are as
// even as a greedy single pass can make them, targeting about
// workers*stealGrain chunks. weight(i) is task i's load estimate (nil = unit
// weights; negative estimates count as zero).
func balanceChunks(n, workers int, weight func(int) int) []chunk {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	target := workers * stealGrain
	if target > n {
		target = n
	}
	total := 0
	if weight != nil {
		for i := 0; i < n; i++ {
			if w := weight(i); w > 0 {
				total += w
			}
		}
	} else {
		total = n
	}
	if total == 0 {
		// All-zero weights: fall back to even index ranges.
		weight, total = nil, n
	}
	// Greedy cut: close a chunk once it reaches the remaining-average
	// weight. Recomputing the average per chunk (instead of a fixed
	// total/target) keeps late chunks from starving when early tasks are
	// heavy: the remaining weight is re-spread over the remaining cuts.
	chunks := make([]chunk, 0, target)
	lo, acc, remaining := 0, 0, total
	for i := 0; i < n; i++ {
		w := 1
		if weight != nil {
			if w = weight(i); w < 0 {
				w = 0
			}
		}
		acc += w
		cutsLeft := target - len(chunks)
		// Always leave at least one task per unfilled chunk behind us.
		if cutsLeft > 1 && acc*(cutsLeft) >= remaining && n-i-1 >= cutsLeft-1 {
			chunks = append(chunks, chunk{lo, i + 1})
			lo = i + 1
			remaining -= acc
			acc = 0
		}
	}
	if lo < n {
		chunks = append(chunks, chunk{lo, n})
	}
	return chunks
}
