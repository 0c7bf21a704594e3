// Benchmarks regenerating the paper's evaluation through testing.B —
// one Benchmark per figure. The figures, series and variants come from
// internal/figures' table and the workloads from internal/harness, the
// same definitions cmd/spectm-bench runs. Each sub-benchmark is one
// series of the corresponding figure; ns/op is the metric (the figures'
// ops/s is its inverse). cmd/spectm-bench produces the same data as
// formatted tables and sweeps thread counts beyond GOMAXPROCS.
//
// Naming: BenchmarkFigN/<sub>/<variant>. The integer-set benchmarks run
// one worker per GOMAXPROCS, so -cpu N sets the worker count.
package spectm

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"spectm/internal/figures"
	"spectm/internal/harness"
	"spectm/internal/rng"
)

// benchFigure runs every series of the named figure as sub-benchmarks.
func benchFigure(b *testing.B, name string) {
	i := slices.IndexFunc(figures.Figures, func(f figures.Figure) bool { return f.Name == name })
	for _, s := range figures.Figures[i].Series {
		series := func(b *testing.B) {
			for _, v := range s.Variants {
				b.Run(v, func(b *testing.B) { benchWorkload(b, s.Workload(v)) })
			}
		}
		if s.Sub == "" {
			series(b)
		} else {
			b.Run(s.Sub, series)
		}
	}
}

// benchWorkload drives the §4.4 workload mix under RunParallel.
func benchWorkload(b *testing.B, w harness.Workload) {
	w.Threads = runtime.GOMAXPROCS(0)
	set, err := w.Prefill()
	if err != nil {
		b.Fatal(err)
	}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := set.NewThread()
		r := rng.New(seed.Add(1) * 0x9e3779b97f4a7c15)
		for pb.Next() {
			w.Op(th, r)
		}
	})
}

// BenchmarkFig1 — hash table, 90% lookups, headline variants (Figure 1).
func BenchmarkFig1(b *testing.B) { benchFigure(b, "1") }

// BenchmarkFig5 — single-threaded short-transaction shapes (Figure 5).
// Sub-benchmark names follow size<items>/<op>/<variant>; the first of
// harness.MicroVariants is the unsynchronized baseline the paper
// normalizes against.
func BenchmarkFig5(b *testing.B) {
	for _, size := range harness.MicroSizes() {
		for _, op := range harness.MicroOps() {
			for _, v := range harness.MicroVariants() {
				b.Run(fmt.Sprintf("size%d/%s/%s", size, op, v), func(b *testing.B) {
					one := harness.NewMicroRunner(v, op, size)
					r := rng.New(42)
					mask := uint64(size - 1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						one(r.Next() & mask)
					}
				})
			}
		}
	}
}

// BenchmarkFig6 — skip list, 90%/10% lookups (Figure 6).
func BenchmarkFig6(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig7 — hash table, 90%/10% lookups (Figure 7).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig8 — skip list, 98/90/10% lookups, "128-way" series (Figure 8).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9 — hash table, 98/90/10% lookups, "128-way" series (Figure 9).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10 — hash table with 0.5-entry and 32-entry chains (Figure 10).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "10") }
