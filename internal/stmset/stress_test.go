package stmset

import (
	"sync"
	"sync/atomic"
	"testing"

	"spectm/internal/core"
	"spectm/internal/rng"
)

// TestSkipTallTowerConcurrency drives enough keys through each skip
// list that the ordinary-transaction paths (towers above height 2, head
// raises) run concurrently with the short-transaction paths and with the
// shared search, and checks per-key add/remove balance afterwards.
func TestSkipTallTowerConcurrency(t *testing.T) {
	iters := 6000
	if testing.Short() {
		iters = 600
	}
	lists := map[string]func(e *core.Engine) (Set, *skipShared){
		"short": func(e *core.Engine) (Set, *skipShared) { sk := NewSkipShort(e); return sk, sk.s },
		"fine":  func(e *core.Engine) (Set, *skipShared) { sk := NewSkipFine(e); return sk, sk.s },
		"full":  func(e *core.Engine) (Set, *skipShared) { sk := NewSkipFull(e); return sk, sk.s },
	}
	for ename, eng := range engines() {
		t.Run(ename, func(t *testing.T) {
			for lname, build := range lists {
				t.Run(lname, func(t *testing.T) {
					sk, shared := build(eng())
					const workers = 4
					const keys = 4096 // big enough for plenty of height ≥ 3 towers
					adds := make([]atomic.Int64, keys)
					removes := make([]atomic.Int64, keys)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(seed uint64) {
							defer wg.Done()
							th := sk.NewThread()
							r := rng.New(seed*131 + 7)
							for i := 0; i < iters; i++ {
								key := r.Intn(keys)
								switch r.Intn(3) {
								case 0:
									if th.Add(key) {
										adds[key].Add(1)
									}
								case 1:
									if th.Remove(key) {
										removes[key].Add(1)
									}
								default:
									th.Contains(key)
								}
							}
						}(uint64(w))
					}
					wg.Wait()
					probe := sk.NewThread()
					for k := uint64(0); k < keys; k++ {
						balance := adds[k].Load() - removes[k].Load()
						if balance != 0 && balance != 1 {
							t.Fatalf("key %d: impossible balance %d", k, balance)
						}
						if got, want := probe.Contains(k), balance == 1; got != want {
							t.Fatalf("key %d: present=%v want %v", k, got, want)
						}
					}
					// The head must have risen well past the short-path levels.
					if hl := probe.Thr().SingleRead(shared.lvlVar()).Uint(); hl <= 2 {
						t.Fatalf("head level %d after %d keys", hl, keys)
					}
				})
			}
		})
	}
}

// TestHashShortMarkedNodeEdge exercises Contains walking over a node
// that is concurrently marked: the marked node must read as absent while
// its successors stay reachable through the frozen link.
func TestHashShortMarkedNodeEdge(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter})
	h := NewHashShort(e, 1) // single bucket: one chain
	th := h.NewThread()
	for _, k := range []uint64{10, 20, 30} {
		if !th.Add(k) {
			t.Fatal("setup add")
		}
	}
	if !th.Remove(20) {
		t.Fatal("remove middle")
	}
	if th.Contains(20) {
		t.Fatal("removed middle key present")
	}
	if !th.Contains(10) || !th.Contains(30) {
		t.Fatal("neighbors lost after middle removal")
	}
	if !th.Add(20) {
		t.Fatal("re-add of removed key failed")
	}
	if !th.Contains(20) {
		t.Fatal("re-added key missing")
	}
}

// TestCrossEngineLayouts ensures one process can host many engines of
// different layouts with independent data (no shared-global bleed).
func TestCrossEngineLayouts(t *testing.T) {
	sets := make([]Set, 0, 6)
	for _, mk := range engines() {
		sets = append(sets, NewHashShort(mk(), 16))
	}
	threads := make([]Thread, len(sets))
	for i, s := range sets {
		threads[i] = s.NewThread()
	}
	for i, th := range threads {
		for k := uint64(0); k < 50; k++ {
			if !th.Add(k*uint64(i+1) + uint64(i)) {
				t.Fatalf("set %d add failed", i)
			}
		}
	}
	for i, th := range threads {
		for k := uint64(0); k < 50; k++ {
			if !th.Contains(k*uint64(i+1) + uint64(i)) {
				t.Fatalf("set %d lost key", i)
			}
		}
	}
}
