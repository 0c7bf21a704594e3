package stmset

import (
	"testing"
	"testing/quick"

	"spectm/internal/core"
)

// engines returns a representative engine per layout/clock combination.
func engines() map[string]func() *core.Engine {
	return map[string]func() *core.Engine{
		"orec-g": func() *core.Engine { return core.New(core.Config{Layout: core.LayoutOrec}) },
		"orec-l": func() *core.Engine { return core.New(core.Config{Layout: core.LayoutOrec, CC: core.CCLocal}) },
		"tvar-g": func() *core.Engine { return core.New(core.Config{Layout: core.LayoutTVar}) },
		"tvar-l": func() *core.Engine { return core.New(core.Config{Layout: core.LayoutTVar, CC: core.CCLocal}) },
		"val":    func() *core.Engine { return core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter}) },
		"val-c":  func() *core.Engine { return core.New(core.Config{Layout: core.LayoutVal}) },
	}
}

// builders enumerates every (structure, API) implementation.
func builders() map[string]func(e *core.Engine) Set {
	return map[string]func(e *core.Engine) Set{
		"hash-full":  func(e *core.Engine) Set { return NewHashFull(e, 8) },
		"hash-short": func(e *core.Engine) Set { return NewHashShort(e, 8) },
		"skip-full":  func(e *core.Engine) Set { return NewSkipFull(e) },
		"skip-short": func(e *core.Engine) Set { return NewSkipShort(e) },
		"skip-fine":  func(e *core.Engine) Set { return NewSkipFine(e) },
	}
}

func forAll(t *testing.T, fn func(t *testing.T, mk func() Set)) {
	t.Helper()
	for ename, eng := range engines() {
		for bname, build := range builders() {
			t.Run(bname+"/"+ename, func(t *testing.T) {
				fn(t, func() Set { return build(eng()) })
			})
		}
	}
}

func TestBasicSemantics(t *testing.T) {
	forAll(t, func(t *testing.T, mk func() Set) {
		th := mk().NewThread()
		if th.Contains(10) {
			t.Fatal("empty set contains 10")
		}
		if !th.Add(10) {
			t.Fatal("Add of absent key failed")
		}
		if th.Add(10) {
			t.Fatal("duplicate Add succeeded")
		}
		if !th.Contains(10) {
			t.Fatal("added key missing")
		}
		if th.Contains(11) {
			t.Fatal("phantom key")
		}
		if !th.Remove(10) {
			t.Fatal("Remove of present key failed")
		}
		if th.Remove(10) {
			t.Fatal("double Remove succeeded")
		}
		if th.Contains(10) {
			t.Fatal("removed key present")
		}
	})
}

func TestBulkInsertLookupDelete(t *testing.T) {
	forAll(t, func(t *testing.T, mk func() Set) {
		th := mk().NewThread()
		const n = 300
		for i := uint64(0); i < n; i++ {
			if !th.Add(i * 7 % 509) {
				t.Fatalf("Add(%d) failed", i*7%509)
			}
		}
		for i := uint64(0); i < n; i++ {
			if !th.Contains(i * 7 % 509) {
				t.Fatalf("key %d missing", i*7%509)
			}
		}
		for i := uint64(0); i < n; i += 2 {
			if !th.Remove(i * 7 % 509) {
				t.Fatalf("Remove(%d) failed", i*7%509)
			}
		}
		for i := uint64(0); i < n; i++ {
			want := i%2 == 1
			if th.Contains(i*7%509) != want {
				t.Fatalf("key %d presence wrong after deletes", i*7%509)
			}
		}
	})
}

func TestModelEquivalence(t *testing.T) {
	forAll(t, func(t *testing.T, mk func() Set) {
		f := func(ops []uint16) bool {
			th := mk().NewThread()
			model := map[uint64]bool{}
			for _, op := range ops {
				key := uint64(op % 128)
				switch (op / 128) % 3 {
				case 0:
					if th.Add(key) != !model[key] {
						return false
					}
					model[key] = true
				case 1:
					if th.Remove(key) != model[key] {
						return false
					}
					delete(model, key)
				default:
					if th.Contains(key) != model[key] {
						return false
					}
				}
			}
			for k := uint64(0); k < 128; k++ {
				if th.Contains(k) != model[k] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReclamation verifies removed nodes flow back through epochs.
func TestReclamation(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter})
	h := NewHashShort(e, 8)
	th := h.NewThread().(*hashShortThread)
	for i := uint64(0); i < 500; i++ {
		if !th.Add(i) || !th.Remove(i) {
			t.Fatal("add/remove cycle failed")
		}
	}
	th.t.Epoch.Flush()
	if live := h.s.a.Live(); live > 64 {
		t.Fatalf("%d hash nodes still live after churn", live)
	}

	sk := NewSkipShort(core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter}))
	st := sk.NewThread().(*skipSMThread[shortSteps])
	for i := uint64(0); i < 500; i++ {
		if !st.Add(i) {
			t.Fatal("skip add failed")
		}
	}
	for i := uint64(0); i < 500; i++ {
		if !st.Remove(i) {
			t.Fatal("skip remove failed")
		}
	}
	st.t.Epoch.Flush()
	if live := sk.s.a.Live(); live > 64 {
		t.Fatalf("%d towers still live after churn", live)
	}
}

// TestTallTowers forces the ordinary-transaction paths of the SpecTM
// skip list by inserting enough keys that levels exceed 2 regularly.
func TestTallTowers(t *testing.T) {
	for ename, eng := range engines() {
		t.Run(ename, func(t *testing.T) {
			sk := NewSkipShort(eng())
			th := sk.NewThread().(*skipSMThread[shortSteps])
			const n = 2000
			for i := uint64(0); i < n; i++ {
				if !th.Add(i) {
					t.Fatalf("Add(%d) failed", i)
				}
			}
			// With 2000 nodes, P(all towers ≤ 2 levels) is (3/4)^2000;
			// the head must have risen.
			if hl := th.t.SingleRead(sk.s.lvlVar()).Uint(); hl <= 2 {
				t.Fatalf("head level %d; tall-tower path apparently never ran", hl)
			}
			for i := uint64(0); i < n; i++ {
				if !th.Contains(i) {
					t.Fatalf("key %d missing", i)
				}
			}
			for i := uint64(0); i < n; i++ {
				if !th.Remove(i) {
					t.Fatalf("Remove(%d) failed", i)
				}
			}
			for i := uint64(0); i < n; i += 97 {
				if th.Contains(i) {
					t.Fatalf("key %d survived removal", i)
				}
			}
		})
	}
}
