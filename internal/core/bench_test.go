package core

// Ablation benchmarks for the design choices DESIGN.md calls out. Where
// the paper's figures compare whole data structures, these isolate the
// primitives: the cost of each API tier (single / short / full) per
// meta-data layout, the cost of the shared global clock, and the cost
// of orec-table false sharing.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spectm/internal/word"
)

func benchConfigs() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"orec-g", Config{Layout: LayoutOrec}},
		{"orec-l", Config{Layout: LayoutOrec, CC: CCLocal}},
		{"tvar-g", Config{Layout: LayoutTVar}},
		{"tvar-l", Config{Layout: LayoutTVar, CC: CCLocal}},
		{"val", Config{Layout: LayoutVal, CC: CCNoCounter}},
		{"val-counter", Config{Layout: LayoutVal}},
	}
}

func benchVars(e *Engine, n int) []Var {
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = e.NewVar(word.FromUint(uint64(i)))
	}
	return vars
}

func BenchmarkSingleRead(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.SingleRead(vars[i&1023])
			}
		})
	}
}

func BenchmarkSingleCAS(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vars[i&1023]
				old := t.SingleRead(v)
				t.SingleCAS(v, old, word.FromUint(old.Uint()+1))
			}
		})
	}
}

func BenchmarkShortRW2(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, x, y := t.ShortRW2(vars[i&1023], vars[(i+1)&1023])
				if !d.Valid() {
					b.Fatal("conflict single-threaded")
				}
				d.Commit(word.FromUint(x.Uint()+1), word.FromUint(y.Uint()+1))
			}
		})
	}
}

// BenchmarkShortDoRW2 measures the combinator overhead over the bare
// descriptor loop.
func BenchmarkShortDoRW2(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DoRW2(t, vars[i&1023], vars[(i+1)&1023],
					func(x, y Value) (Value, Value, bool) {
						return word.FromUint(x.Uint() + 1), word.FromUint(y.Uint() + 1), true
					})
			}
		})
	}
}

func BenchmarkShortRO2(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, _ := t.ShortRO2(vars[i&1023], vars[(i+1)&1023])
				if !d.Valid() {
					b.Fatal("conflict single-threaded")
				}
			}
		})
	}
}

// BenchmarkShortRO2ByMaxThreads is the commit-counter cost model: a
// ShortRO2 on the val layout sums one counter per registered thread,
// twice, so ns/op must track reg and stay flat across cap.
func BenchmarkShortRO2ByMaxThreads(b *testing.B) {
	for _, capacity := range []int{8, 128, 1024} {
		for _, reg := range []int{1, 8, 64} {
			if reg > capacity {
				continue
			}
			b.Run(fmt.Sprintf("cap=%d/reg=%d", capacity, reg), func(b *testing.B) {
				e := New(Config{Layout: LayoutVal, MaxThreads: capacity})
				t := e.Register()
				for i := 1; i < reg; i++ {
					e.Register()
				}
				vars := benchVars(e, 1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, _, _ := t.ShortRO2(vars[i&1023], vars[(i+1)&1023])
					if !d.Valid() {
						b.Fatal("conflict single-threaded")
					}
				}
			})
		}
	}
}

func BenchmarkFullTxn2(b *testing.B) {
	for _, c := range benchConfigs() {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			t := e.Register()
			vars := benchVars(e, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.TxStart()
				x := t.TxRead(vars[i&1023])
				y := t.TxRead(vars[(i+1)&1023])
				t.TxWrite(vars[i&1023], word.FromUint(x.Uint()+1))
				t.TxWrite(vars[(i+1)&1023], word.FromUint(y.Uint()+1))
				if !t.TxCommit() {
					b.Fatal("conflict single-threaded")
				}
			}
		})
	}
}

// BenchmarkAblationOrecBits shows the false-conflict cost of small orec
// tables under parallel disjoint-location updates.
func BenchmarkAblationOrecBits(b *testing.B) {
	for _, bits := range []int{6, 10, 14, 18} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			e := New(Config{Layout: LayoutOrec, CC: CCLocal, OrecBits: bits})
			vars := benchVars(e, 4096)
			var seed atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				t := e.Register()
				i := seed.Add(1) * 977
				for pb.Next() {
					i++
					attempt := 1
					for {
						d, x, y := t.ShortRW2(vars[i&4095], vars[(i+2048)&4095])
						if d.Valid() {
							d.Commit(x, y)
							break
						}
						t.Backoff(attempt)
						attempt++
					}
				}
			})
		})
	}
}

// BenchmarkAblationGlobalClock contrasts the shared global version
// counter against per-orec versions under parallel short updates — the
// contention the paper's *-g variants pay on many-core machines.
func BenchmarkAblationGlobalClock(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"global", Config{Layout: LayoutTVar}},
		{"local", Config{Layout: LayoutTVar, CC: CCLocal}},
		{"val-nocounter", Config{Layout: LayoutVal, CC: CCNoCounter}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := New(c.cfg)
			vars := benchVars(e, 4096)
			var seed atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				t := e.Register()
				i := seed.Add(1) * 131
				for pb.Next() {
					i++
					if d, x := t.ShortRW1(vars[i&4095]); d.Valid() {
						d.Commit(x)
					}
				}
			})
		})
	}
}
