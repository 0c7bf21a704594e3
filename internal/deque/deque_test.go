package deque

import (
	"sync"
	"testing"
	"testing/quick"

	"spectm/internal/core"
	"spectm/internal/word"
)

func engines() map[string]core.Config {
	return map[string]core.Config{
		"orec-g": {Layout: core.LayoutOrec},
		"tvar-l": {Layout: core.LayoutTVar, CC: core.CCLocal},
		"val":    {Layout: core.LayoutVal},
	}
}

// ends abstracts the two flavors for shared tests.
type ends interface {
	PushLeft(word.Value) bool
	PushRight(word.Value) bool
	PopLeft() (word.Value, bool)
	PopRight() (word.Value, bool)
}

func forBoth(t *testing.T, capacity int, fn func(t *testing.T, q ends)) {
	t.Helper()
	for ename, cfg := range engines() {
		e := core.New(cfg)
		d := New(e, capacity)
		t.Run("short/"+ename, func(t *testing.T) { fn(t, d.NewShort(e.Register())) })
		e2 := core.New(cfg)
		d2 := New(e2, capacity)
		t.Run("full/"+ename, func(t *testing.T) { fn(t, d2.NewFull(e2.Register())) })
	}
}

func iv(u uint64) word.Value { return word.FromUint(u) }

func TestFIFOBothEnds(t *testing.T) {
	forBoth(t, 8, func(t *testing.T, q ends) {
		if _, ok := q.PopLeft(); ok {
			t.Fatal("pop from empty deque succeeded")
		}
		if _, ok := q.PopRight(); ok {
			t.Fatal("pop from empty deque succeeded")
		}
		for i := uint64(1); i <= 4; i++ {
			if !q.PushRight(iv(i)) {
				t.Fatalf("PushRight(%d) failed", i)
			}
		}
		for i := uint64(1); i <= 4; i++ {
			v, ok := q.PopLeft()
			if !ok || v != iv(i) {
				t.Fatalf("PopLeft = %v,%v want %v", v, ok, iv(i))
			}
		}
		// Stack behavior on one end.
		for i := uint64(1); i <= 4; i++ {
			q.PushLeft(iv(i))
		}
		for i := uint64(4); i >= 1; i-- {
			v, ok := q.PopLeft()
			if !ok || v != iv(i) {
				t.Fatalf("LIFO PopLeft = %v want %v", v, iv(i))
			}
		}
	})
}

func TestFullDetection(t *testing.T) {
	forBoth(t, 4, func(t *testing.T, q ends) {
		for i := uint64(1); i <= 4; i++ {
			if !q.PushRight(iv(i)) {
				t.Fatalf("push %d into capacity-4 deque failed", i)
			}
		}
		if q.PushRight(iv(9)) || q.PushLeft(iv(9)) {
			t.Fatal("push into full deque succeeded")
		}
		if v, ok := q.PopLeft(); !ok || v != iv(1) {
			t.Fatal("pop after full failed")
		}
		if !q.PushRight(iv(5)) {
			t.Fatal("push after pop failed")
		}
	})
}

func TestWrapAround(t *testing.T) {
	forBoth(t, 3, func(t *testing.T, q ends) {
		for round := uint64(0); round < 20; round++ {
			if !q.PushRight(iv(round + 1)) {
				t.Fatalf("round %d push failed", round)
			}
			v, ok := q.PopLeft()
			if !ok || v != iv(round+1) {
				t.Fatalf("round %d: pop = %v,%v", round, v, ok)
			}
		}
	})
}

// TestModelProperty checks both flavors against a slice-based model.
func TestModelProperty(t *testing.T) {
	for ename, cfg := range engines() {
		for _, flavor := range []string{"short", "full"} {
			t.Run(flavor+"/"+ename, func(t *testing.T) {
				f := func(ops []uint8) bool {
					e := core.New(cfg)
					d := New(e, 6)
					var q ends
					if flavor == "short" {
						q = d.NewShort(e.Register())
					} else {
						q = d.NewFull(e.Register())
					}
					var model []uint64
					next := uint64(1)
					for _, op := range ops {
						switch op % 4 {
						case 0:
							ok := q.PushLeft(iv(next))
							if ok != (len(model) < 6) {
								return false
							}
							if ok {
								model = append([]uint64{next}, model...)
							}
							next++
						case 1:
							ok := q.PushRight(iv(next))
							if ok != (len(model) < 6) {
								return false
							}
							if ok {
								model = append(model, next)
							}
							next++
						case 2:
							v, ok := q.PopLeft()
							if ok != (len(model) > 0) {
								return false
							}
							if ok {
								if v != iv(model[0]) {
									return false
								}
								model = model[1:]
							}
						default:
							v, ok := q.PopRight()
							if ok != (len(model) > 0) {
								return false
							}
							if ok {
								if v != iv(model[len(model)-1]) {
									return false
								}
								model = model[:len(model)-1]
							}
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestConcurrentConservation runs producers and consumers on both ends,
// mixing the short and full flavors on the same deque, and checks every
// pushed value is popped exactly once.
func TestConcurrentConservation(t *testing.T) {
	for ename, cfg := range engines() {
		t.Run(ename, func(t *testing.T) {
			e := core.New(cfg)
			d := New(e, 64)
			const producers, perProducer = 2, 2000
			total := producers * perProducer

			var mu sync.Mutex
			seen := make(map[uint64]int, total)
			var wg sync.WaitGroup

			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					thr := e.Register()
					q := d.NewShort(thr)
					for i := 0; i < perProducer; i++ {
						v := iv(uint64(p*perProducer+i) + 1)
						for !q.PushRight(v) {
							// full: let consumers drain
						}
					}
				}(p)
			}

			popped := make(chan uint64, total)
			var consumers sync.WaitGroup
			done := make(chan struct{})
			for c := 0; c < 2; c++ {
				consumers.Add(1)
				go func(c int) {
					defer consumers.Done()
					thr := e.Register()
					short := d.NewShort(thr)
					full := d.NewFull(thr)
					for {
						var v word.Value
						var ok bool
						if c == 0 {
							v, ok = short.PopLeft()
						} else {
							v, ok = full.PopRight() // mixed APIs on one deque
						}
						if ok {
							popped <- v.Uint()
							continue
						}
						select {
						case <-done:
							// drain whatever remains
							if v, ok := short.PopLeft(); ok {
								popped <- v.Uint()
								continue
							}
							return
						default:
						}
					}
				}(c)
			}
			wg.Wait()
			close(done)
			consumers.Wait()
			close(popped)
			for v := range popped {
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
			if len(seen) != total {
				t.Fatalf("popped %d distinct values, want %d", len(seen), total)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("value %d popped %d times", v, n)
				}
			}
		})
	}
}

func TestNullValueRejected(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutTVar})
	d := New(e, 4)
	q := d.NewShort(e.Register())
	defer func() {
		if recover() == nil {
			t.Fatal("pushing the null value must panic")
		}
	}()
	q.PushRight(word.Null)
}

func TestTinyCapacityRejected(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutTVar})
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 1 must panic")
		}
	}()
	New(e, 1)
}
