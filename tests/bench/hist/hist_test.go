package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact returns the sample of rank ceil(q·n) from sorted xs, the
// definition Quantile approximates.
func exact(xs []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return float64(xs[rank-1])
}

func TestQuantilesWithinTwoPercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return r.Int63n(5_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(r.NormFloat64()*1.5 + 10)) },
		"bimodal": func() int64 {
			if r.Intn(100) < 97 {
				return 800 + r.Int63n(400)
			}
			return 400_000 + r.Int63n(4_000_000)
		},
		"tiny": func() int64 { return r.Int63n(50) },
	}
	for name, draw := range dists {
		var a, b, merged H
		xs := make([]int64, 200_000)
		for i := range xs {
			xs[i] = draw()
			if i%2 == 0 {
				a.Record(xs[i])
			} else {
				b.Record(xs[i])
			}
		}
		merged.Merge(&a)
		merged.Merge(&b)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		if merged.Count() != uint64(len(xs)) || merged.Max() != xs[len(xs)-1] || merged.Min() != xs[0] {
			t.Fatalf("%s: count/min/max = %d/%d/%d, want %d/%d/%d", name,
				merged.Count(), merged.Min(), merged.Max(), len(xs), xs[0], xs[len(xs)-1])
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := merged.Quantile(q), exact(xs, q)
			if want == 0 {
				if got != 0 {
					t.Errorf("%s q=%v: got %v, want 0", name, q, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("%s q=%v: got %v, want %v (rel err %.4f > 0.02)", name, q, got, want, rel)
			}
		}
	}
}

func TestEdges(t *testing.T) {
	var h H
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN")
	}
	h.Record(-5)            // clamps into bucket 0
	h.Record(math.MaxInt64) // clamps into the last bucket
	if h.Count() != 2 || h.Max() != math.MaxInt64 || h.Min() != -5 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset kept samples")
	}
	// Every bucket's bounds must tile the range without gaps.
	prevHi := 0.0
	for i := 0; i < nBuckets; i++ {
		lo, hi := bounds(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%v,%v), previous ended at %v", i, lo, hi, prevHi)
		}
		if b := bucket(int64(lo)); b != i {
			t.Fatalf("bucket(%v) = %d, want %d", lo, b, i)
		}
		prevHi = hi
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	var h H
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}
