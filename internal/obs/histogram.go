package obs

import (
	"math/bits"
	"sync"
)

// histBuckets is the number of log2 buckets: bucket 0 holds values <= 1,
// bucket i holds values in (2^(i-1), 2^i], covering the full int64 range.
const histBuckets = 64

// Histogram is a log2-bucketed latency distribution. Observations are
// nanoseconds (simulated-clock); quantiles interpolate linearly inside a
// bucket, which is accurate to a factor-of-two band — plenty for latency
// shapes spanning orders of magnitude. Safe for concurrent use.
type Histogram struct {
	name string

	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram creates an empty histogram. The name is used as the
// Prometheus metric stem and the table row label.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: -1}
}

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// BucketOf maps a value onto its log2 bucket.
func BucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v) - 1)
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.buckets[BucketOf(v)]++
	h.count++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Merge folds a snapshot into h, bucket by bucket — used to aggregate
// per-shard histograms (e.g. the dependency census across protocol runs).
// Merging an empty snapshot is a no-op.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	h.mu.Lock()
	for i, c := range s.Buckets {
		h.buckets[i] += c
	}
	h.count += s.Count
	h.sum += s.Sum
	if h.min < 0 || s.Min < h.min {
		h.min = s.Min
	}
	if s.Max > h.max {
		h.max = s.Max
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Name       string
	Count, Sum int64
	Min, Max   int64
	Buckets    [histBuckets]int64
}

// Snapshot returns a consistent copy (Min is 0 when empty).
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Name:    h.name,
		Count:   h.count,
		Sum:     h.sum,
		Max:     h.max,
		Buckets: h.buckets,
	}
	if h.min > 0 {
		s.Min = h.min
	}
	return s
}

// Mean returns the arithmetic mean, 0 when empty.
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile returns the q-th quantile (0 <= q <= 1) with linear interpolation
// inside the containing log2 bucket, clamped to the observed [Min, Max].
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(bucketUpper(i - 1))
			}
			hi := float64(bucketUpper(i))
			frac := (rank - cum) / float64(c)
			v := int64(lo + (hi-lo)*frac)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}
