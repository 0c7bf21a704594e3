package lockfree

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spectm/internal/epoch"
	"spectm/internal/rng"
)

func stressIters(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestListBasic(t *testing.T) {
	l := NewList()
	dom := epoch.NewDomain(4)
	s := dom.Register()
	if l.Contains(s, 5) {
		t.Fatal("empty list contains 5")
	}
	if !l.Add(s, 5) || l.Add(s, 5) {
		t.Fatal("Add semantics")
	}
	if !l.Add(s, 3) || !l.Add(s, 7) {
		t.Fatal("Add of distinct keys")
	}
	for _, k := range []uint64{3, 5, 7} {
		if !l.Contains(s, k) {
			t.Fatalf("key %d missing", k)
		}
	}
	if l.Contains(s, 4) || l.Contains(s, 8) {
		t.Fatal("phantom key")
	}
	if !l.Remove(s, 5) || l.Remove(s, 5) {
		t.Fatal("Remove semantics")
	}
	if l.Contains(s, 5) {
		t.Fatal("removed key present")
	}
	if got := l.Len(s); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestListContainsPastDeletedTail: a remover that has marked the last
// node but not yet unlinked it leaves a marked null as that node's
// link. A read-only Contains must end its walk there; reading past it
// resolved the nil handle and, for key 0, reported a phantom hit.
func TestListContainsPastDeletedTail(t *testing.T) {
	l := NewList()
	s := epoch.NewDomain(1).Register()
	l.Add(s, 5)
	n := l.a.Get(dec(l.head))
	atomic.StoreUint64(&n.next, mark(n.next)) // Remove's mark, before its unlink
	for _, k := range []uint64{0, 5, 9} {
		if l.Contains(s, k) {
			t.Errorf("Contains(%d) on a list whose one node is deleted", k)
		}
	}
}

func TestListModelProperty(t *testing.T) {
	dom := epoch.NewDomain(2)
	s := dom.Register()
	f := func(ops []uint16) bool {
		l := NewList()
		model := map[uint64]bool{}
		for _, op := range ops {
			key := uint64(op % 64)
			switch (op / 64) % 3 {
			case 0:
				if l.Add(s, key) != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				if l.Remove(s, key) != model[key] {
					return false
				}
				delete(model, key)
			default:
				if l.Contains(s, key) != model[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHashBasic(t *testing.T) {
	h := NewHash(16, 4)
	s := h.Register()
	if !h.Add(s, 100) || h.Add(s, 100) {
		t.Fatal("Add semantics")
	}
	if !h.Contains(s, 100) || h.Contains(s, 101) {
		t.Fatal("Contains semantics")
	}
	if !h.Remove(s, 100) || h.Remove(s, 100) {
		t.Fatal("Remove semantics")
	}
}

func TestSkipBasic(t *testing.T) {
	sk := NewSkip(4)
	s := sk.Register()
	r := rng.New(42)
	if sk.Contains(s, 5) {
		t.Fatal("empty list contains 5")
	}
	for k := uint64(0); k < 100; k++ {
		if !sk.Add(s, r, k*3) {
			t.Fatalf("Add(%d) failed", k*3)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if !sk.Contains(s, k*3) {
			t.Fatalf("key %d missing", k*3)
		}
		if sk.Contains(s, k*3+1) {
			t.Fatalf("phantom key %d", k*3+1)
		}
	}
	if sk.Add(s, r, 30) {
		t.Fatal("duplicate Add succeeded")
	}
	for k := uint64(0); k < 100; k += 2 {
		if !sk.Remove(s, k*3) {
			t.Fatalf("Remove(%d) failed", k*3)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k%2 == 1
		if sk.Contains(s, k*3) != want {
			t.Fatalf("key %d presence = %v, want %v", k*3, !want, want)
		}
	}
	if got := sk.Len(s); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
}

func TestSkipModelProperty(t *testing.T) {
	sk := NewSkip(2)
	s := sk.Register()
	r := rng.New(7)
	// One long random sequence against a model (fresh Skip per run would
	// exhaust epoch domains; a single instance is fine sequentially).
	f := func(ops []uint16) bool {
		model := map[uint64]bool{}
		// Start from the structure's current content: rebuild the model.
		for k := uint64(0); k < 128; k++ {
			if sk.Contains(s, k) {
				model[k] = true
			}
		}
		for _, op := range ops {
			key := uint64(op % 128)
			switch (op / 128) % 3 {
			case 0:
				if sk.Add(s, r, key) != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				if sk.Remove(s, key) != model[key] {
					return false
				}
				delete(model, key)
			default:
				if sk.Contains(s, key) != model[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// setAPI abstracts the three concurrent structures for shared stress
// harnesses.
type setAPI interface {
	add(key uint64) bool
	remove(key uint64) bool
	contains(key uint64) bool
}

type hashThread struct {
	h *Hash
	s *epoch.Slot
}

func (x hashThread) add(k uint64) bool      { return x.h.Add(x.s, k) }
func (x hashThread) remove(k uint64) bool   { return x.h.Remove(x.s, k) }
func (x hashThread) contains(k uint64) bool { return x.h.Contains(x.s, k) }

type skipThread struct {
	sk *Skip
	s  *epoch.Slot
	r  *rng.State
}

func (x skipThread) add(k uint64) bool      { return x.sk.Add(x.s, x.r, k) }
func (x skipThread) remove(k uint64) bool   { return x.sk.Remove(x.s, k) }
func (x skipThread) contains(k uint64) bool { return x.sk.Contains(x.s, k) }

// stressSet checks linearizable set semantics under concurrency by
// exploiting balance: each worker alternates Add/Remove on a shared key
// range and counts successes; per key, successful adds - successful
// removes must equal final membership.
func stressSet(t *testing.T, iters int, mk func() setAPI) {
	const workers = 4
	const keys = 32
	var adds, removes [keys]atomic.Int64
	threads := make([]setAPI, workers)
	for i := range threads {
		threads[i] = mk()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(api setAPI, seed uint64) {
			defer wg.Done()
			r := rng.New(seed + 1)
			for i := 0; i < iters; i++ {
				key := r.Intn(keys)
				switch r.Intn(3) {
				case 0:
					if api.add(key) {
						adds[key].Add(1)
					}
				case 1:
					if api.remove(key) {
						removes[key].Add(1)
					}
				default:
					api.contains(key)
				}
			}
		}(threads[w], uint64(w))
	}
	wg.Wait()
	probe := mk()
	for k := uint64(0); k < keys; k++ {
		balance := adds[k].Load() - removes[k].Load()
		if balance != 0 && balance != 1 {
			t.Fatalf("key %d: %d adds vs %d removes — impossible balance", k, adds[k].Load(), removes[k].Load())
		}
		if got, want := probe.contains(k), balance == 1; got != want {
			t.Fatalf("key %d: present=%v want %v", k, got, want)
		}
	}
}

func TestHashConcurrentStress(t *testing.T) {
	h := NewHash(8, 8)
	stressSet(t, stressIters(t, 20000), func() setAPI {
		return hashThread{h: h, s: h.Register()}
	})
}

func TestSkipConcurrentStress(t *testing.T) {
	sk := NewSkip(8)
	var n atomic.Uint64
	stressSet(t, stressIters(t, 20000), func() setAPI {
		return skipThread{sk: sk, s: sk.Register(), r: rng.New(n.Add(1))}
	})
}

// TestSkipSortedAfterStress verifies the level-0 chain is sorted and
// duplicate-free after a concurrent workout.
func TestSkipSortedAfterStress(t *testing.T) {
	sk := NewSkip(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := sk.Register()
			r := rng.New(seed + 100)
			for i := 0; i < stressIters(t, 10000); i++ {
				key := r.Intn(256)
				if r.Intn(2) == 0 {
					sk.Add(s, r, key)
				} else {
					sk.Remove(s, key)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	s := sk.Register()
	s.Enter()
	defer s.Exit()
	prev := int64(-1)
	curW := atomic.LoadUint64(&sk.head.next[0])
	for curW != 0 {
		n := sk.a.Get(dec(curW))
		nextW := atomic.LoadUint64(&n.next[0])
		if !marked(nextW) {
			if int64(n.Key) <= prev {
				t.Fatalf("level-0 chain unsorted or duplicated: %d after %d", n.Key, prev)
			}
			prev = int64(n.Key)
		}
		curW = unmark(nextW)
	}
}

// TestListReclamation checks nodes actually flow back to the arena.
func TestListReclamation(t *testing.T) {
	l := NewList()
	dom := epoch.NewDomain(2)
	s := dom.Register()
	for i := 0; i < 1000; i++ {
		if !l.Add(s, uint64(i)) {
			t.Fatal("add failed")
		}
		if !l.Remove(s, uint64(i)) {
			t.Fatal("remove failed")
		}
	}
	s.Flush()
	if live := l.a.Live(); live > 64 {
		t.Fatalf("%d nodes still live after 1000 add/remove cycles", live)
	}
}

// TestSkipReclamation checks tower credits release nodes to the arena.
func TestSkipReclamation(t *testing.T) {
	sk := NewSkip(2)
	s := sk.Register()
	r := rng.New(9)
	for i := 0; i < 1000; i++ {
		if !sk.Add(s, r, uint64(i)) {
			t.Fatal("add failed")
		}
	}
	for i := 0; i < 1000; i++ {
		if !sk.Remove(s, uint64(i)) {
			t.Fatal("remove failed")
		}
	}
	s.Flush()
	if live := sk.a.Live(); live > 64 {
		t.Fatalf("%d towers still live after delete-all", live)
	}
}
