// Package hist is a fixed log-bucket latency histogram: recording is
// two shifts and an increment into an array embedded in the value, so
// it never allocates, and per-client histograms merge by adding
// buckets. Each octave is split into 64 linear sub-buckets, which
// bounds a reported quantile's relative error below 1/64.
package hist

import (
	"math"
	"math/bits"
)

const (
	subBits = 6
	subN    = 1 << subBits
	// maxExp caps the range at 2^40 ns (≈18 min); larger values land in
	// the last bucket.
	maxExp   = 40
	nBuckets = (maxExp-subBits)*subN + subN
)

// H counts non-negative int64 samples (nanoseconds by convention). The
// zero value is ready to use. Not safe for concurrent use: give each
// client its own and Merge at the end.
type H struct {
	counts [nBuckets]uint64
	n      uint64
	max    int64
	min    int64
}

// bucket maps a value to its bucket index. Values below subN map to
// themselves (exact); above, the top subBits+1 significant bits pick
// the octave and the linear slot inside it.
func bucket(v int64) int {
	if v < subN {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBits - 1 // ≥ 0
	if exp >= maxExp-subBits {
		return nBuckets - 1
	}
	return (exp+1)*subN + int(uint64(v)>>uint(exp))&(subN-1)
}

// bounds returns the inclusive lower and exclusive upper value of
// bucket i.
func bounds(i int) (lo, hi float64) {
	if i < subN {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/subN - 1)
	lo = float64((uint64(subN) + uint64(i%subN)) << exp)
	return lo, lo + float64(uint64(1)<<exp)
}

// Record adds one sample.
func (h *H) Record(v int64) {
	h.counts[bucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Merge adds o's samples into h.
func (h *H) Merge(o *H) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Reset forgets every sample.
func (h *H) Reset() { *h = H{} }

// Count returns the number of samples recorded.
func (h *H) Count() uint64 { return h.n }

// Max returns the largest sample (exact), 0 when empty.
func (h *H) Max() int64 { return h.max }

// Min returns the smallest sample (exact), 0 when empty.
func (h *H) Min() int64 { return h.min }

// Quantile returns the q-quantile (0 ≤ q ≤ 1): the sample of rank
// ceil(q·n), placed inside its bucket by linear interpolation over the
// bucket's own samples and clamped to the exact min and max. It returns
// NaN when the histogram is empty.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := bounds(i)
			v := lo // buckets below subN hold one integer value each
			if i >= subN {
				v = lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
			}
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}
