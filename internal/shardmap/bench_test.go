package shardmap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// benchMap builds a pre-populated map for the hot-path benchmarks,
// pre-sized to load 1 (nkeys/8 buckets per shard on the default 8
// shards).
func benchMap(nkeys int, opts ...Option) (*Map, []string) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, append([]Option{WithInitialBuckets(nkeys / 8)}, opts...)...)
	return m, fillMap(m, nkeys)
}

// fillMap puts nkeys keys into m and returns them.
func fillMap(m *Map, nkeys int) []string {
	th := m.NewThread()
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%06d", i)
		th.Put(keys[i], word.FromUint(uint64(i)))
	}
	return keys
}

func BenchmarkMapGet(b *testing.B) {
	m, keys := benchMap(1 << 14)
	benchGet(b, m, keys)
}

// BenchmarkMapGet64Ki reads 64 Ki uniform keys from a map built with no
// bucket hint, the shape of the ledger's embed-mixed: its tables reach
// their size by growing, as a real map's do.
func BenchmarkMapGet64Ki(b *testing.B) {
	m := New(core.New(core.Config{Layout: core.LayoutVal}))
	benchGet(b, m, fillMap(m, 1<<16))
}

func benchGet(b *testing.B, m *Map, keys []string) {
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

// BenchmarkMapScan32 is one 32-key Scan from a random live start key,
// every candidate read through its hint.
func BenchmarkMapScan32(b *testing.B) {
	m, keys := benchMap(1<<14, WithOrdered())
	benchScan32(b, m, keys)
}

func benchScan32(b *testing.B, m *Map, keys []string) {
	th := m.NewThread()
	r := rng.New(1)
	sk := make([]string, 0, 32)
	sv := make([]Value, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, sv, _ = th.Scan(keys[r.Intn(uint64(len(keys)))], "", 32, sk[:0], sv[:0])
		if len(sk) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// largeMap is an ordered map of 1 Mi keys, inserted in scrambled order
// so that neither the hash nodes nor the index entries lie in key order
// in memory. At this size (about 350 MB) a scan's or a batch's reads
// miss the caches, as they do in the server under the wire-read
// workload. It is built once per test binary.
var largeMap = sync.OnceValues(func() (*Map, []string) {
	const n = 1 << 20
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithOrdered(), WithInitialBuckets(n/8))
	th := m.NewThread()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d", i)
	}
	for i := uint64(0); i < n; i++ {
		j := i * 0x9e3779b97f4a7c15 & (n - 1) // odd multiplier: a bijection on [0, n)
		th.Put(keys[j], word.FromUint(j))
	}
	return m, keys
})

// BenchmarkMapScan32Large is BenchmarkMapScan32 on the 1 Mi-key map.
func BenchmarkMapScan32Large(b *testing.B) {
	m, keys := largeMap()
	benchScan32(b, m, keys)
}

// BenchmarkMapGet16Large is 16 Gets of random keys on the 1 Mi-key
// map, one after another: each lookup's chain misses are taken in
// turn. BenchmarkMapGetEach16Large is the same 16 keys through one
// GetEach.
func BenchmarkMapGet16Large(b *testing.B) {
	benchGet16Large(b, func(th *Thread, batch []string, vals []Value, found []bool) {
		for j, k := range batch {
			vals[j], found[j] = th.Get(k)
		}
	})
}

// BenchmarkMapGetEach16Large is one Touch and one 16-key GetEach of
// random keys on the 1 Mi-key map: every key's chain walked in rounds,
// then 16 independent lookups.
func BenchmarkMapGetEach16Large(b *testing.B) {
	benchGet16Large(b, func(th *Thread, batch []string, vals []Value, found []bool) {
		th.Touch(batch)
		th.GetEach(batch, vals, found)
	})
}

func benchGet16Large(b *testing.B, get func(*Thread, []string, []Value, []bool)) {
	m, keys := largeMap()
	th := m.NewThread()
	r := rng.New(1)
	batch := make([]string, 16)
	vals := make([]Value, 16)
	found := make([]bool, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = keys[r.Intn(uint64(len(keys)))]
		}
		get(th, batch, vals, found)
		if !found[0] {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMapGetBatch8Large is one 8-key GetBatch of random keys on
// the 1 Mi-key map: a full read-only transaction after the batch's
// chains are walked in rounds.
func BenchmarkMapGetBatch8Large(b *testing.B) {
	m, keys := largeMap()
	th := m.NewThread()
	r := rng.New(1)
	batch := make([]string, 8)
	vals := make([]Value, 8)
	found := make([]bool, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = keys[r.Intn(uint64(len(keys)))]
		}
		th.GetBatch(batch, vals, found)
		if !found[0] {
			b.Fatal("miss")
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

// BenchmarkMapFill1Mi times every Put of one thread that fills a
// default map, plain and ordered, with 1 Mi keys: max-put-ns is the
// slowest Put and slow-put-ms the time spent in Puts over 1 ms, per
// fill. Those are where a stall that growth puts on one writer shows; a
// mean hides it. Run with GOGC=off to keep collector pauses out of them.
func BenchmarkMapFill1Mi(b *testing.B) {
	keys := make([]string, 1<<20)
	for i := range keys {
		keys[i] = fmt.Sprintf("fill-%08d", i)
	}
	for _, c := range []struct {
		name string
		opts []Option
	}{{"plain", nil}, {"ordered", []Option{WithOrdered()}}} {
		b.Run(c.name, func(b *testing.B) {
			var worst, slow time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				th := New(core.New(core.Config{Layout: core.LayoutVal}), c.opts...).NewThread()
				b.StartTimer()
				for j, k := range keys {
					t0 := time.Now()
					th.Put(k, word.FromUint(uint64(j)))
					d := time.Since(t0)
					worst = max(worst, d)
					if d > time.Millisecond {
						slow += d
					}
				}
			}
			b.ReportMetric(float64(worst.Nanoseconds()), "max-put-ns")
			b.ReportMetric(float64(slow.Nanoseconds())/1e6/float64(b.N), "slow-put-ms")
		})
	}
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
			add := func(k string) { ol.add(x, k, 0) }
			drop := func(k string) { olistDrop(ol, x, k) }
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
