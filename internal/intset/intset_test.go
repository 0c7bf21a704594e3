package intset

import (
	"sync"
	"sync/atomic"
	"testing"

	"spectm/internal/rng"
)

func stressIters(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestVariantsConstruct(t *testing.T) {
	for _, structure := range []string{"hash", "skip"} {
		for _, v := range Variants() {
			if structure == "hash" && v == "orec-full-g-fine" {
				if _, err := New(Config{Structure: structure, Variant: v}); err == nil {
					t.Fatalf("hash/%s should be rejected", v)
				}
				continue
			}
			s, err := New(Config{Structure: structure, Variant: v, Buckets: 64, MaxThreads: 8})
			if err != nil {
				t.Fatalf("%s/%s: %v", structure, v, err)
			}
			th := s.NewThread()
			if !th.Add(42) || !th.Contains(42) || !th.Remove(42) || th.Contains(42) {
				t.Fatalf("%s/%s: basic semantics broken", structure, v)
			}
		}
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	if _, err := New(Config{Structure: "hash", Variant: "bogus"}); err == nil {
		t.Fatal("bogus variant accepted")
	}
	if _, err := New(Config{Structure: "tree", Variant: "val-short"}); err == nil {
		t.Fatal("bogus structure accepted")
	}
}

// TestAllVariantsAgree drives every concurrent variant with the same
// deterministic op sequence (single-threaded) and demands identical
// results.
func TestAllVariantsAgree(t *testing.T) {
	const opCount = 4000
	type op struct {
		kind int
		key  uint64
	}
	r := rng.New(12345)
	ops := make([]op, opCount)
	for i := range ops {
		ops[i] = op{kind: int(r.Intn(3)), key: r.Intn(256)}
	}
	for _, structure := range []string{"hash", "skip"} {
		var reference []bool
		for _, v := range Variants() {
			if structure == "hash" && v == "orec-full-g-fine" {
				continue
			}
			s, err := New(Config{Structure: structure, Variant: v, Buckets: 32, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			th := s.NewThread()
			results := make([]bool, opCount)
			for i, o := range ops {
				switch o.kind {
				case 0:
					results[i] = th.Add(o.key)
				case 1:
					results[i] = th.Remove(o.key)
				default:
					results[i] = th.Contains(o.key)
				}
			}
			if reference == nil {
				reference = results
				continue
			}
			for i := range results {
				if results[i] != reference[i] {
					t.Fatalf("%s/%s diverges from sequential at op %d (%+v)", structure, v, i, ops[i])
				}
			}
		}
	}
}

// TestFig1VariantsZeroAlloc pins the steady state of figure 1's hash
// table at 0 allocs/op for every variant the figure plots: a lookup, a
// remove of an absent key and an add of a present key touch no new node.
func TestFig1VariantsZeroAlloc(t *testing.T) {
	for _, v := range []string{"lock-free", "val-short", "tvar-short-g", "orec-short-g", "orec-full-g"} {
		s, err := New(Config{Structure: "hash", Variant: v, Buckets: 256, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		th := s.NewThread()
		for k := uint64(0); k < 1024; k += 2 {
			th.Add(k)
		}
		for name, op := range map[string]func(){
			"contains":        func() { th.Contains(512) },
			"remove-absent":   func() { th.Remove(513) },
			"add-present":     func() { th.Add(514) },
			"contains-absent": func() { th.Contains(515) },
		} {
			if got := testing.AllocsPerRun(200, op); got != 0 {
				t.Errorf("%s %s: %.2f allocs/op, want 0", v, name, got)
			}
		}
	}
}

// TestConcurrentBalance stresses every concurrent variant and checks the
// add/remove balance invariant per key.
func TestConcurrentBalance(t *testing.T) {
	iters := stressIters(t, 4000)
	for _, structure := range []string{"hash", "skip"} {
		for _, v := range Variants() {
			if !IsConcurrent(v) || (structure == "hash" && v == "orec-full-g-fine") {
				continue
			}
			t.Run(structure+"/"+v, func(t *testing.T) {
				s, err := New(Config{Structure: structure, Variant: v, Buckets: 16, MaxThreads: 16})
				if err != nil {
					t.Fatal(err)
				}
				const workers = 4
				const keys = 24
				var adds, removes [keys]atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						th := s.NewThread()
						r := rng.New(seed + 1)
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
				probe := s.NewThread()
				for k := uint64(0); k < keys; k++ {
					balance := adds[k].Load() - removes[k].Load()
					if balance != 0 && balance != 1 {
						t.Fatalf("key %d: impossible balance %d", k, balance)
					}
					if got, want := probe.Contains(k), balance == 1; got != want {
						t.Fatalf("key %d: present=%v want %v", k, got, want)
					}
				}
			})
		}
	}
}
