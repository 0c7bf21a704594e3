package btree

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spectm/internal/core"
	"spectm/internal/rng"
)

func engines() map[string]core.Config {
	return map[string]core.Config{
		"orec-g": {Layout: core.LayoutOrec},
		"orec-l": {Layout: core.LayoutOrec, CC: core.CCLocal},
		"tvar-g": {Layout: core.LayoutTVar},
		"val":    {Layout: core.LayoutVal}, // counters: tree versions are monotone but values repeat
	}
}

func forAll(t *testing.T, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) { fn(t, New(core.New(cfg))) })
	}
}

func TestBasic(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		if _, ok := th.Get(5); ok {
			t.Fatal("empty tree returned a value")
		}
		if !th.Put(5, 50) {
			t.Fatal("first Put must report new")
		}
		if v, ok := th.Get(5); !ok || v != 50 {
			t.Fatalf("Get = %d,%v want 50", v, ok)
		}
		if th.Put(5, 55) {
			t.Fatal("update must not report new")
		}
		if v, _ := th.Get(5); v != 55 {
			t.Fatalf("update lost: %d", v)
		}
		if !th.Delete(5) || th.Delete(5) {
			t.Fatal("Delete semantics")
		}
		if _, ok := th.Get(5); ok {
			t.Fatal("deleted key present")
		}
	})
}

func TestSplitsAndGrowth(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		const n = 5000 // forces multiple levels at fanout 8
		for i := uint64(0); i < n; i++ {
			key := i * 2654435761 % (1 << 20)
			th.Put(key, key+1)
		}
		for i := uint64(0); i < n; i++ {
			key := i * 2654435761 % (1 << 20)
			if v, ok := th.Get(key); !ok || v != key+1 {
				t.Fatalf("key %d: got %d,%v", key, v, ok)
			}
		}
		// The root must have grown past a single leaf.
		root := tr.a.Get(dec(th.th.SingleRead(tr.rootVar())))
		if root.leaf {
			t.Fatal("root is still a leaf after 5000 inserts")
		}
	})
}

func TestKeyZeroAndBoundaries(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		if !th.Put(0, 0) {
			t.Fatal("Put(0) failed")
		}
		if v, ok := th.Get(0); !ok || v != 0 {
			t.Fatal("Get(0) failed")
		}
		// Dense sequential keys force splits at every boundary.
		for i := uint64(1); i <= 200; i++ {
			th.Put(i, i*10)
		}
		for i := uint64(0); i <= 200; i++ {
			want := i * 10
			if v, ok := th.Get(i); !ok || v != want {
				t.Fatalf("key %d: %d,%v want %d", i, v, ok, want)
			}
		}
		if !th.Delete(0) {
			t.Fatal("Delete(0) failed")
		}
	})
}

func TestModelEquivalence(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		model := map[uint64]uint64{}
		f := func(ops []uint32) bool {
			for _, op := range ops {
				key := uint64(op % 512)
				val := uint64(op >> 9 % 1024)
				switch (op / 16384) % 3 {
				case 0:
					_, had := model[key]
					if th.Put(key, val) != !had {
						return false
					}
					model[key] = val
				case 1:
					_, had := model[key]
					if th.Delete(key) != had {
						return false
					}
					delete(model, key)
				default:
					v, ok := th.Get(key)
					mv, had := model[key]
					if ok != had || (ok && v != mv) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
		for k, mv := range model {
			if v, ok := th.Get(k); !ok || v != mv {
				t.Fatalf("final check key %d: %d,%v want %d", k, v, ok, mv)
			}
		}
	})
}

func TestConcurrentDisjointWriters(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		const workers = 4
		const per = 3000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				th := tr.NewThread()
				for i := uint64(0); i < per; i++ {
					key := i*workers + w // disjoint key sets
					if !th.Put(key, key^0xABCD) {
						t.Errorf("worker %d: Put(%d) reported existing", w, key)
						return
					}
				}
			}(uint64(w))
		}
		wg.Wait()
		th := tr.NewThread()
		for key := uint64(0); key < workers*per; key++ {
			if v, ok := th.Get(key); !ok || v != key^0xABCD {
				t.Fatalf("key %d: %d,%v", key, v, ok)
			}
		}
	})
}

func TestConcurrentMixedWorkload(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		const workers = 4
		const keys = 512
		iters := 4000
		if testing.Short() {
			iters = 400
		}
		var puts, dels [keys]atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				th := tr.NewThread()
				r := rng.New(seed + 1)
				for i := 0; i < iters; i++ {
					key := r.Intn(keys)
					switch r.Intn(4) {
					case 0, 1:
						if th.Put(key, key*7) {
							puts[key].Add(1)
						}
					case 2:
						if th.Delete(key) {
							dels[key].Add(1)
						}
					default:
						if v, ok := th.Get(key); ok && v != key*7 {
							t.Errorf("key %d holds foreign value %d", key, v)
							return
						}
					}
				}
			}(uint64(w))
		}
		wg.Wait()
		th := tr.NewThread()
		for k := uint64(0); k < keys; k++ {
			balance := puts[k].Load() - dels[k].Load()
			if balance != 0 && balance != 1 {
				t.Fatalf("key %d: impossible new-insert/delete balance %d", k, balance)
			}
			_, present := th.Get(k)
			if present != (balance == 1) {
				t.Fatalf("key %d: present=%v balance=%d", k, present, balance)
			}
		}
	})
}

// TestOrderedInvariant walks every leaf via sibling links and checks
// global key order against fences after a randomized workout.
func TestOrderedInvariant(t *testing.T) {
	forAll(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		r := rng.New(99)
		for i := 0; i < 3000; i++ {
			key := r.Intn(1 << 16)
			if r.Intn(3) == 0 {
				th.Delete(key)
			} else {
				th.Put(key, key)
			}
		}
		// Find the leftmost leaf.
		h := dec(th.th.SingleRead(tr.rootVar()))
		for {
			n := tr.a.Get(h)
			if n.leaf {
				break
			}
			h = dec(th.th.SingleRead(tr.valVar(h, n, 0)))
		}
		// Sweep the leaf chain.
		seen := map[uint64]bool{}
		var lowBound uint64
		for {
			n := tr.a.Get(h)
			high := th.th.SingleRead(tr.highVar(h, n))
			for i := 0; i < LeafSlots; i++ {
				kv := th.th.SingleRead(tr.keyVar(h, n, i))
				if kv.IsNull() {
					continue
				}
				k := decKey(kv)
				if seen[k] {
					t.Fatalf("key %d appears in two leaves", k)
				}
				seen[k] = true
				if k < lowBound {
					t.Fatalf("key %d below leaf lower bound %d", k, lowBound)
				}
				if !high.IsNull() && k+1 >= high.Uint() {
					t.Fatalf("key %d at or above leaf fence %d", k, high.Uint()-1)
				}
			}
			if high.IsNull() {
				break
			}
			lowBound = high.Uint() - 1
			nxt := th.th.SingleRead(tr.nextVar(h, n))
			if nxt.IsNull() {
				t.Fatal("fenced leaf without sibling")
			}
			h = dec(nxt)
		}
		// Every present key must be in the sweep.
		for k := uint64(0); k < 1<<16; k++ {
			if _, ok := th.Get(k); ok && !seen[k] {
				t.Fatalf("key %d gettable but missing from leaf sweep", k)
			}
		}
	})
}
