package clock

import (
	"sync"
	"testing"
)

func TestGlobalTick(t *testing.T) {
	var g Global
	if g.Read() != 0 {
		t.Fatal("fresh clock must read 0")
	}
	if g.Tick() != 1 || g.Tick() != 2 {
		t.Fatal("Tick must return consecutive values")
	}
	if g.Read() != 2 {
		t.Fatal("Read must observe the last Tick")
	}
}

func TestGlobalTickConcurrent(t *testing.T) {
	var g Global
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, workers)
	for w := 0; w < workers; w++ {
		seen[w] = make(map[uint64]bool, per)
		wg.Add(1)
		go func(m map[uint64]bool) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m[g.Tick()] = true
			}
		}(seen[w])
	}
	wg.Wait()
	all := make(map[uint64]bool, workers*per)
	for _, m := range seen {
		for v := range m {
			if all[v] {
				t.Fatalf("timestamp %d handed out twice", v)
			}
			all[v] = true
		}
	}
	if g.Read() != workers*per {
		t.Fatalf("final clock %d, want %d", g.Read(), workers*per)
	}
}

func TestPerThreadStableSum(t *testing.T) {
	p := NewPerThread(4)
	if p.StableSum() != 0 {
		t.Fatal("fresh per-thread clock must sum to 0")
	}
	a, _ := p.Register()
	b, _ := p.Register()
	p.Bump(a)
	p.Bump(a)
	for i := 0; i < 4; i++ {
		p.Bump(b)
	}
	if got := p.StableSum(); got != 6 {
		t.Fatalf("StableSum = %d, want 6", got)
	}
}

// TestPerThreadPrefix pins the cost model: StableSum covers exactly the
// registered prefix, whatever the capacity. A bump on a slot nobody
// registered stays invisible; after Register it counts.
func TestPerThreadPrefix(t *testing.T) {
	p := NewPerThread(4096)
	for i := 0; i < 3; i++ {
		if tid, ok := p.Register(); !ok || tid != i {
			t.Fatalf("Register #%d = (%d, %v)", i, tid, ok)
		}
	}
	p.Bump(3)
	p.Bump(3)
	if got := p.StableSum(); got != 0 {
		t.Fatalf("StableSum = %d: read past the published prefix", got)
	}
	p.Register()
	if got := p.StableSum(); got != 2 {
		t.Fatalf("StableSum = %d after publishing slot 3, want 2", got)
	}
}

func TestPerThreadRegisterFull(t *testing.T) {
	p := NewPerThread(2)
	p.Register()
	p.Register()
	if _, ok := p.Register(); ok {
		t.Fatal("Register beyond capacity must fail")
	}
	if p.Registered() != 2 {
		t.Fatalf("a refused Register moved the prefix to %d", p.Registered())
	}
	p.StableSum() // must not walk past the slots
}

// TestPerThreadConcurrent registers and bumps from many goroutines at
// once: ids are unique, and the final sum counts every bump.
func TestPerThreadConcurrent(t *testing.T) {
	const workers, per = 8, 10000
	p := NewPerThread(workers)
	var wg sync.WaitGroup
	tids := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid, _ := p.Register()
			tids[w] = tid
			for i := 0; i < per; i++ {
				p.Bump(tid)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool, workers)
	for _, tid := range tids {
		if seen[tid] {
			t.Fatalf("slot %d handed out twice", tid)
		}
		seen[tid] = true
	}
	if got := p.StableSum(); got != workers*per {
		t.Fatalf("StableSum = %d, want %d", got, workers*per)
	}
}
