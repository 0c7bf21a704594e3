package core

import (
	"testing"
	"testing/quick"

	"spectm/internal/word"
)

// TestCombinedROThenRW covers the Figure 2 mixing rule: RO reads open
// the record, RW reads (LockRead) join it, the combined commit validates
// the RO entries while holding the RW locks.
func TestCombinedROThenRW(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		guard := e.NewVar(iv(1))
		val := e.NewVar(iv(10))
		ro, g := thr.ShortRO1(guard)
		if g != iv(1) {
			t.Fatal("setup")
		}
		cb, got := ro.LockRead(val)
		if got != iv(10) {
			t.Fatalf("RW read joined with value %v", got)
		}
		if !cb.Commit(iv(11)) {
			t.Fatal("combined commit failed without contention")
		}
		if thr.SingleRead(val) != iv(11) || thr.SingleRead(guard) != iv(1) {
			t.Fatal("combined commit wrote wrong state")
		}
	})
}

func TestCombinedROThenRWConflict(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr, writer := e.Register(), e.Register()
		guard := e.NewVar(iv(1))
		val := e.NewVar(iv(10))
		ro, _ := thr.ShortRO1(guard)
		cb, _ := ro.LockRead(val)
		writer.SingleWrite(guard, iv(2)) // invalidate the RO member
		if cb.Commit(iv(11)) {
			t.Fatal("commit must fail after the guard changed")
		}
		if writer.SingleRead(val) != iv(10) {
			t.Fatal("failed combined commit leaked a write or lock")
		}
		// The val location must be unlocked again.
		writer.SingleWrite(val, iv(12))
		if thr.SingleRead(val) != iv(12) {
			t.Fatal("location unusable after failed combined commit")
		}
	})
}

func TestCombinedTwoWrites(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		guard := e.NewVar(iv(1))
		a, b := e.NewVar(iv(10)), e.NewVar(iv(20))
		ro, _ := thr.ShortRO1(guard)
		cb1, _ := ro.LockRead(a)
		cb2, _ := cb1.LockRead(b)
		if !cb2.Commit(iv(11), iv(21)) {
			t.Fatal("RO1RW2 commit failed")
		}
		if thr.SingleRead(a) != iv(11) || thr.SingleRead(b) != iv(21) {
			t.Fatal("RO1RW2 wrote wrong values")
		}
	})
}

func TestShortDiscardAbandonsROAndReleasesLocks(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// Abandon an open read-only record, then run an unrelated RW
		// transaction: it must start fresh, not join.
		thr.ShortRO1(a)
		thr.ShortDiscard()
		d, got := thr.ShortRW1(b)
		if got != iv(2) || !d.Valid() {
			t.Fatal("fresh RW txn after discard failed")
		}
		d.Commit(iv(3))
		if thr.SingleRead(b) != iv(3) {
			t.Fatal("commit after discard lost")
		}
		// Discard with a held lock releases it.
		thr.ShortRW1(a)
		thr.ShortDiscard()
		od, _ := e.Register().ShortRW1(a)
		if !od.Valid() {
			t.Fatal("lock not released by discard")
		}
		od.Abort()
	})
}

func TestROAfterValidationStartsFresh(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		if ro, _ := thr.ShortRO1(a); !ro.Valid() {
			t.Fatal("validation failed")
		}
		// A validated (committed) RO record is done; the next RW read
		// must not treat it as an open combined transaction.
		d, got := thr.ShortRW1(b)
		if got != iv(2) {
			t.Fatalf("post-validation RW read = %v", got)
		}
		d.Commit(iv(9))
		if thr.SingleRead(b) != iv(9) {
			t.Fatal("post-validation RW commit lost")
		}
	})
}

func TestROWhileHoldingLocksPanics(t *testing.T) {
	e := New(Config{Layout: LayoutTVar})
	thr := e.Register()
	a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
	thr.ShortRW1(a)
	defer func() {
		if recover() == nil {
			t.Fatal("RO read with held write locks must panic")
		}
		thr.ShortDiscard()
	}()
	thr.ShortRO1(b)
}

func TestThreeAndFourLocationRW(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := []Var{e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3)), e.NewVar(iv(4))}
		d3, x1, x2, x3 := thr.ShortRW3(v[0], v[1], v[2])
		if !d3.Valid() {
			t.Fatal("RW3 invalid")
		}
		d3.Commit(iv(x1.Uint()+10), iv(x2.Uint()+10), iv(x3.Uint()+10))
		for i, want := range []uint64{11, 12, 13} {
			if got := thr.SingleRead(v[i]).Uint(); got != want {
				t.Fatalf("v[%d] = %d, want %d", i, got, want)
			}
		}
		d4, _, _, _, _ := thr.ShortRW4(v[0], v[1], v[2], v[3])
		if !d4.Valid() {
			t.Fatal("RW4 invalid")
		}
		d4.Abort()
		if thr.SingleRead(v[3]) != iv(4) {
			t.Fatal("RW4 abort did not restore")
		}
	})
}

func TestROThreeAndFour(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr, writer := e.Register(), e.Register()
		v := []Var{e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3)), e.NewVar(iv(4))}
		if d3, _, _, _ := thr.ShortRO3(v[0], v[1], v[2]); !d3.Valid() {
			t.Fatal("RO3 failed quiescent")
		}
		if d4, _, _, _, _ := thr.ShortRO4(v[0], v[1], v[2], v[3]); !d4.Valid() {
			t.Fatal("RO4 failed quiescent")
		}
		// A write inside the window must invalidate RO4.
		d2, _, _ := thr.ShortRO2(v[0], v[1])
		writer.SingleWrite(v[0], iv(99))
		d3, _ := d2.Extend(v[2])
		if d4, _ := d3.Extend(v[3]); d4.Valid() {
			t.Fatal("RO4 validated across a concurrent write")
		}
	})
}

func TestUpgradeVariants(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// Upgrade the second read to the first write.
		ro, _, _ := thr.ShortRO2(a, b)
		cb, ok := ro.Upgrade2()
		if !ok {
			t.Fatal("RO2->RW1 upgrade failed")
		}
		if !cb.Commit(iv(20)) {
			t.Fatal("commit after RO2->RW1 upgrade failed")
		}
		if thr.SingleRead(b) != iv(20) || thr.SingleRead(a) != iv(1) {
			t.Fatal("upgrade wrote the wrong location")
		}
		// Upgrade both reads (write set of two).
		ro, _, _ = thr.ShortRO2(a, b)
		cb, ok1 := ro.Upgrade1()
		cb2, ok2 := cb.Upgrade2()
		if !ok1 || !ok2 {
			t.Fatal("double upgrade failed")
		}
		if !cb2.Commit(iv(100), iv(200)) {
			t.Fatal("commit after double upgrade failed")
		}
		if thr.SingleRead(a) != iv(100) || thr.SingleRead(b) != iv(200) {
			t.Fatal("double-upgrade commit wrote wrong values")
		}
	})
}

// TestShortModelProperty: random short-transaction programs over a small
// variable pool behave like direct memory operations when run alone.
func TestShortModelProperty(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				e := New(cfg)
				thr := e.Register()
				const n = 4
				vars := make([]Var, n)
				model := make([]uint64, n)
				for i := range vars {
					vars[i] = e.NewVar(iv(uint64(i)))
					model[i] = uint64(i)
				}
				for _, op := range ops {
					i := int(op % n)
					j := int((op / n) % n)
					val := uint64(op>>4) % 1000
					switch (op / 256) % 5 {
					case 0: // single write
						thr.SingleWrite(vars[i], iv(val))
						model[i] = val
					case 1: // single read
						if thr.SingleRead(vars[i]) != iv(model[i]) {
							return false
						}
					case 2: // single CAS
						witnessed := thr.SingleCAS(vars[i], iv(model[i]), iv(val))
						if witnessed != iv(model[i]) {
							return false
						}
						model[i] = val
					case 3: // short RW pair (distinct locations)
						if i == j {
							continue
						}
						d, x, y := thr.ShortRW2(vars[i], vars[j])
						if !d.Valid() {
							return false
						}
						if x != iv(model[i]) || y != iv(model[j]) {
							return false
						}
						d.Commit(iv(val), iv(val+1))
						model[i], model[j] = val, val+1
					default: // short RO pair
						if i == j {
							continue
						}
						d, x, y := thr.ShortRO2(vars[i], vars[j])
						if !d.Valid() {
							return false
						}
						if x != iv(model[i]) || y != iv(model[j]) {
							return false
						}
					}
				}
				for i := range vars {
					if thr.SingleRead(vars[i]) != iv(model[i]) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestValueBitsNeverLeak: under heavy mixed use, committed values never
// carry the reserved lock bit.
func TestValueBitsNeverLeak(t *testing.T) {
	e := New(Config{Layout: LayoutVal})
	thr := e.Register()
	v := e.NewVar(iv(1))
	for i := uint64(0); i < 2000; i++ {
		d, x := thr.ShortRW1(v)
		if !d.Valid() {
			t.Fatal("conflict single-threaded")
		}
		d.Commit(iv(x.Uint() + 1))
		got := thr.SingleRead(v)
		if word.Locked(uint64(got)) {
			t.Fatalf("lock bit leaked into committed value %#x", uint64(got))
		}
	}
}
