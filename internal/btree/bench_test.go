package btree

import (
	"sync/atomic"
	"testing"

	"spectm/internal/core"
	"spectm/internal/rng"
)

func benchTree(b *testing.B, cfg core.Config, keys uint64) *Tree {
	b.Helper()
	tr := New(core.New(cfg))
	th := tr.NewThread()
	for k := uint64(0); k < keys; k += 2 {
		th.Put(k, k)
	}
	return tr
}

func benchEngines() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"tvar-g", core.Config{Layout: core.LayoutTVar}},
		{"val", core.Config{Layout: core.LayoutVal}},
	}
}

func BenchmarkGet(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			tr := benchTree(b, e.cfg, 1<<16)
			var seed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := tr.NewThread()
				r := rng.New(seed.Add(1))
				for pb.Next() {
					th.Get(r.Intn(1 << 16))
				}
			})
		})
	}
}

func BenchmarkPutGetMix(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			tr := benchTree(b, e.cfg, 1<<16)
			var seed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := tr.NewThread()
				r := rng.New(seed.Add(1))
				for pb.Next() {
					k := r.Intn(1 << 16)
					switch r.Intn(10) {
					case 0:
						th.Put(k, k)
					case 1:
						th.Delete(k)
					default:
						th.Get(k)
					}
				}
			})
		})
	}
}
