package mwcas

import (
	"sync"
	"testing"

	"spectm/internal/core"
	"spectm/internal/word"
)

func engines() map[string]core.Config {
	return map[string]core.Config{
		"orec-g": {Layout: core.LayoutOrec},
		"orec-l": {Layout: core.LayoutOrec, CC: core.CCLocal},
		"tvar-g": {Layout: core.LayoutTVar},
		"val":    {Layout: core.LayoutVal},
	}
}

func iv(u uint64) word.Value { return word.FromUint(u) }

func stressIters(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestDCSSSemantics(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			e := core.New(cfg)
			thr := e.Register()
			a1, a2 := e.NewVar(iv(1)), e.NewVar(iv(2))
			if !DCSS(thr, a1, a2, iv(1), iv(2), iv(10)) {
				t.Fatal("matching DCSS failed")
			}
			if thr.SingleRead(a1) != iv(10) || thr.SingleRead(a2) != iv(2) {
				t.Fatal("DCSS wrote wrong state")
			}
			if DCSS(thr, a1, a2, iv(1), iv(2), iv(11)) {
				t.Fatal("stale DCSS succeeded")
			}
			if DCSS(thr, a1, a2, iv(10), iv(3), iv(11)) {
				t.Fatal("DCSS with wrong second expectation succeeded")
			}
			if thr.SingleRead(a1) != iv(10) {
				t.Fatal("failed DCSS mutated memory")
			}
		})
	}
}

func TestCASNSemantics(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			e := core.New(cfg)
			thr := e.Register()
			a1, a2, a3 := e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3))
			a4 := e.NewVar(iv(4))

			if !CAS2(thr, a1, a2, iv(1), iv(2), iv(10), iv(20)) {
				t.Fatal("CAS2 failed")
			}
			if thr.SingleRead(a1) != iv(10) || thr.SingleRead(a2) != iv(20) {
				t.Fatal("CAS2 state wrong")
			}
			if CAS2(thr, a1, a2, iv(1), iv(20), iv(0), iv(0)) {
				t.Fatal("stale CAS2 succeeded")
			}

			if !CAS3(thr, a1, a2, a3, iv(10), iv(20), iv(3), iv(11), iv(21), iv(31)) {
				t.Fatal("CAS3 failed")
			}
			if thr.SingleRead(a3) != iv(31) {
				t.Fatal("CAS3 state wrong")
			}
			if CAS3(thr, a1, a2, a3, iv(10), iv(21), iv(31), iv(0), iv(0), iv(0)) {
				t.Fatal("stale CAS3 succeeded")
			}

			if !CAS4(thr,
				[4]core.Var{a1, a2, a3, a4},
				[4]word.Value{iv(11), iv(21), iv(31), iv(4)},
				[4]word.Value{iv(12), iv(22), iv(32), iv(42)}) {
				t.Fatal("CAS4 failed")
			}
			if thr.SingleRead(a4) != iv(42) {
				t.Fatal("CAS4 state wrong")
			}
			if CAS4(thr,
				[4]core.Var{a1, a2, a3, a4},
				[4]word.Value{iv(12), iv(22), iv(32), iv(41)},
				[4]word.Value{iv(0), iv(0), iv(0), iv(0)}) {
				t.Fatal("stale CAS4 succeeded")
			}
		})
	}
}

func TestKCSSSemantics(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			e := core.New(cfg)
			thr := e.Register()
			a := e.NewVar(iv(1))
			b := e.NewVar(iv(2))
			c := e.NewVar(iv(3))
			d := e.NewVar(iv(4))

			if !KCSS(thr, []core.Var{a, b}, []word.Value{iv(1), iv(2)}, iv(9)) {
				t.Fatal("2-KCSS failed")
			}
			if thr.SingleRead(a) != iv(9) || thr.SingleRead(b) != iv(2) {
				t.Fatal("2-KCSS state wrong: only the first location may change")
			}
			if KCSS(thr, []core.Var{a, b}, []word.Value{iv(1), iv(2)}, iv(5)) {
				t.Fatal("stale KCSS succeeded")
			}
			if !KCSS(thr, []core.Var{a, b, c, d}, []word.Value{iv(9), iv(2), iv(3), iv(4)}, iv(10)) {
				t.Fatal("4-KCSS failed")
			}
			if thr.SingleRead(a) != iv(10) {
				t.Fatal("4-KCSS did not write")
			}
			if KCSS(thr, []core.Var{a, b, c, d}, []word.Value{iv(10), iv(2), iv(3), iv(5)}, iv(11)) {
				t.Fatal("4-KCSS with one mismatch succeeded")
			}
		})
	}
}

func TestKCSSBadArityPanics(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutTVar})
	thr := e.Register()
	a := e.NewVar(iv(1))
	defer func() {
		if recover() == nil {
			t.Fatal("1-location KCSS must panic")
		}
	}()
	KCSS(thr, []core.Var{a}, []word.Value{iv(1)}, iv(2))
}

// TestCAS2Atomicity: concurrent CAS2-based transfers preserve the sum,
// and a DCSS-guarded flag is respected.
func TestCAS2Atomicity(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			e := core.New(cfg)
			const workers = 4
			iters := stressIters(t, 3000)
			a, b := e.NewVar(iv(10000)), e.NewVar(iv(10000))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					thr := e.Register()
					for i := 0; i < iters; i++ {
						for {
							x := thr.SingleRead(a)
							y := thr.SingleRead(b)
							if x.Uint() == 0 {
								break
							}
							if CAS2(thr, a, b, x, y, iv(x.Uint()-1), iv(y.Uint()+1)) {
								break
							}
						}
					}
				}()
			}
			wg.Wait()
			thr := e.Register()
			sum := thr.SingleRead(a).Uint() + thr.SingleRead(b).Uint()
			if sum != 20000 {
				t.Fatalf("sum = %d, want 20000", sum)
			}
		})
	}
}

// TestDCSSGuardedCounter: DCSS increments a counter only while a guard
// flag is set; after the guard clears, no increment may slip in.
func TestDCSSGuardedCounter(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	guard := e.NewVar(iv(1)) // 1 = open
	counter := e.NewVar(iv(0))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := e.Register()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := thr.SingleRead(counter)
				DCSS(thr, counter, guard, c, iv(1), iv(c.Uint()+1))
			}
		}()
	}
	closer := e.Register()
	for closer.SingleRead(counter).Uint() < 100 {
	}
	closer.SingleWrite(guard, iv(0))
	close(stop)
	wg.Wait()
	// All workers quiesced and the guard is closed: the counter must be
	// stable and further guarded increments must fail.
	final := closer.SingleRead(counter)
	if final.Uint() < 100 {
		t.Fatalf("counter only reached %d", final.Uint())
	}
	if DCSS(closer, counter, guard, final, iv(1), iv(final.Uint()+1)) {
		t.Fatal("DCSS succeeded against a closed guard")
	}
	if got := closer.SingleRead(counter); got != final {
		t.Fatalf("counter moved from %d to %d after quiescence", final.Uint(), got.Uint())
	}
}
