package arena

import (
	"sync"
	"sync/atomic"
	"testing"
)

func BenchmarkAllocFree(b *testing.B) {
	a := New[node]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, n := a.Alloc()
		n.key = uint64(i)
		a.Free(h)
	}
}

func BenchmarkGet(b *testing.B) {
	a := New[node]()
	handles := make([]Handle, 1024)
	for i := range handles {
		h, n := a.Alloc()
		n.key = uint64(i)
		handles[i] = h
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += a.Get(handles[i&1023]).key
	}
	_ = sink
}

func BenchmarkAllocParallel(b *testing.B) {
	a := New[node]()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		local := make([]Handle, 0, 64)
		for pb.Next() {
			h, n := a.Alloc()
			n.key = ctr.Add(1)
			local = append(local, h)
			if len(local) == 64 {
				for _, lh := range local {
					a.Free(lh)
				}
				local = local[:0]
			}
		}
		for _, lh := range local {
			a.Free(lh)
		}
	})
}

// BenchmarkArenaAllocParallel is the ordered index's allocation pattern
// during a preload or a replay: two goroutines bump-allocating from one
// arena whose free list is empty, which must not meet on a lock. A fresh
// arena replaces the shared one every 1 Mi slots to bound the memory.
func BenchmarkArenaAllocParallel(b *testing.B) {
	const perArena = 1 << 20
	var shared atomic.Pointer[Arena[node]]
	shared.Store(New[node]())
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N/2; i++ {
				a := shared.Load()
				h, n := a.Alloc()
				n.key = uint64(i)
				if h.slot() == perArena {
					shared.Store(New[node]())
				}
			}
		}()
	}
	wg.Wait()
}
