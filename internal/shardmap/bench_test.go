package shardmap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// benchMap builds a pre-populated map for the hot-path benchmarks.
func benchMap(nkeys int, opts ...Option) (*Map, []string) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, append([]Option{WithInitialBuckets(nkeys / 8)}, opts...)...)
	th := m.NewThread()
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%06d", i)
		th.Put(keys[i], word.FromUint(uint64(i)))
	}
	return m, keys
}

func BenchmarkMapGet(b *testing.B) {
	m, keys := benchMap(1 << 14)
	th := m.NewThread()
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.Get(keys[r.Intn(uint64(len(keys)))]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMapPutUpdate(b *testing.B) {
	m, keys := benchMap(1 << 14)
	th := m.NewThread()
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if th.Put(keys[r.Intn(uint64(len(keys)))], word.FromUint(uint64(i))) {
			b.Fatal("unexpected insert")
		}
	}
}

func BenchmarkMapGetBatch2(b *testing.B) {
	m, keys := benchMap(1 << 14)
	th := m.NewThread()
	r := rng.New(1)
	vals := make([]Value, 2)
	found := make([]bool, 2)
	pair := make([]string, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair[0] = keys[r.Intn(uint64(len(keys)))]
		pair[1] = keys[r.Intn(uint64(len(keys)))]
		th.GetBatch(pair, vals, found)
	}
}

// BenchmarkMapScan32 is one 32-key Scan from a random start, its
// candidates read through their hints (the first pass over the map
// fills them).
func BenchmarkMapScan32(b *testing.B) {
	m, keys := benchMap(1<<14, WithOrdered())
	th := m.NewThread()
	r := rng.New(1)
	sk := make([]string, 0, 32)
	sv := make([]Value, 0, 32)
	sk, sv, _ = th.Scan("", "", 0, sk, sv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, sv, _ = th.Scan(keys[r.Intn(uint64(len(keys)))], "", 32, sk[:0], sv[:0])
		if len(sk) == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkMapMixedParallel(b *testing.B) {
	m, keys := benchMap(1 << 14)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		th := m.NewThread()
		r := rng.New(ids.Add(1) * 0x9e3779b97f4a7c15)
		for pb.Next() {
			k := keys[r.Intn(uint64(len(keys)))]
			if r.Intn(10) == 0 {
				th.Put(k, word.FromUint(r.Next()>>3))
			} else {
				th.Get(k)
			}
		}
	})
}

// olistFixtures caches one built index per size: the three BenchmarkOlist
// functions, and the framework's repeated calls while it settles b.N,
// share it (a 1 Mi-entry build takes seconds).
var olistFixtures = map[int]*olistFixture{}

type olistFixture struct {
	m     *Map
	x     *Thread
	keys  []string // in the index
	extra []string // not in it: what Insert adds and Delete then removes
}

func olistFixtureOf(n int) *olistFixture {
	if f := olistFixtures[n]; f != nil {
		return f
	}
	const batch = 4096
	all := olistKeys(n+batch, true)
	f := &olistFixture{keys: all[:n], extra: all[n:]}
	f.m = New(core.New(core.Config{Layout: core.LayoutVal}), WithOrdered())
	f.x = f.m.NewThread()
	olistFill(f.m, f.x, f.keys)
	olistFixtures[n] = f
	return f
}

var olistSizes = []struct {
	name string
	n    int
}{{"4Ki", 4 << 10}, {"256Ki", 256 << 10}, {"1Mi", 1 << 20}}

// BenchmarkOlistSearch is one descent for a present key, at the key
// counts the server is benchmarked at.
func BenchmarkOlistSearch(b *testing.B) {
	for _, sz := range olistSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := olistFixtureOf(sz.n)
			b.ReportAllocs()
			f.x.t.Epoch.Enter()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.m.ordered.search(f.x, f.keys[rng.Mix(uint64(i))%uint64(sz.n)])
			}
			b.StopTimer()
			f.x.t.Epoch.Exit()
		})
	}
}

// benchOlistMutation times insert (or delete) of the fixture's extra
// keys in batches, undoing each batch off the clock so the index stays
// at its size.
func benchOlistMutation(b *testing.B, insert bool) {
	for _, sz := range olistSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := olistFixtureOf(sz.n)
			ol, x := f.m.ordered, f.x
			add := func(k string) { ol.add(x, k, 0, 0) }
			drop := func(k string) { ol.drop(x, k) }
			timed, undo := add, drop
			if !insert {
				timed, undo = drop, add
				olistFill(f.m, x, f.extra)
				defer func() {
					x.t.Epoch.Enter()
					for _, k := range f.extra {
						drop(k)
					}
					x.t.Epoch.Exit()
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				batch := f.extra[:min(len(f.extra), b.N-done)]
				x.t.Epoch.Enter()
				for _, k := range batch {
					timed(k)
				}
				b.StopTimer()
				for _, k := range batch {
					undo(k)
				}
				x.t.Epoch.Exit()
				b.StartTimer()
				done += len(batch)
			}
		})
	}
}

func BenchmarkOlistInsert(b *testing.B) { benchOlistMutation(b, true) }
func BenchmarkOlistDelete(b *testing.B) { benchOlistMutation(b, false) }
