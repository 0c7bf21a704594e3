package core

// Tests for the typed short-transaction API: lifecycle over every
// layout, misuse behavior, zero-allocation guarantees on the fast paths,
// and a race-detector stress of the Do combinators.

import (
	"sync"
	"testing"
)

func TestTypedRWLifecycle(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

		// Open-all-at-once, commit.
		d, x, y := thr.ShortRW2(a, b)
		if !d.Valid() {
			t.Fatal("uncontended RW2 invalid")
		}
		if x != iv(1) || y != iv(2) {
			t.Fatalf("reads = (%v, %v)", x, y)
		}
		d.Commit(iv(10), iv(20))
		if thr.SingleRead(a) != iv(10) || thr.SingleRead(b) != iv(20) {
			t.Fatal("commit did not store")
		}

		// Staged open via Extend up to arity 4, abort restores.
		c, dd := e.NewVar(iv(3)), e.NewVar(iv(4))
		d1, _ := thr.ShortRW1(a)
		d2, _ := d1.Extend(b)
		d3, _ := d2.Extend(c)
		d4, w := d3.Extend(dd)
		if !d4.Valid() {
			t.Fatal("uncontended RW4 invalid")
		}
		if w != iv(4) {
			t.Fatalf("fourth read = %v", w)
		}
		d4.Abort()
		if thr.SingleRead(a) != iv(10) || thr.SingleRead(dd) != iv(4) {
			t.Fatal("abort did not restore")
		}

		// RW3 commit.
		d3x, x1, x2, x3 := thr.ShortRW3(a, b, c)
		if !d3x.Valid() {
			t.Fatal("uncontended RW3 invalid")
		}
		d3x.Commit(iv(x1.Uint()+1), iv(x2.Uint()+1), iv(x3.Uint()+1))
		if thr.SingleRead(c) != iv(4) {
			t.Fatal("RW3 commit wrong")
		}
	})
}

func TestTypedROAndUpgrade(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b, c := e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3))

		// Snapshot commit (validation).
		d, x, y, z := thr.ShortRO3(a, b, c)
		if x != iv(1) || y != iv(2) || z != iv(3) {
			t.Fatalf("RO reads = (%v, %v, %v)", x, y, z)
		}
		if !d.Valid() {
			t.Fatal("uncontended RO3 invalid")
		}

		// Upgrade the first read of a 2-read snapshot, combined commit —
		// the DCSS shape.
		ro, _ := thr.ShortRO1(a)
		ro2, _ := ro.Extend(b)
		cb, ok := ro2.Upgrade1()
		if !ok {
			t.Fatal("uncontended upgrade failed")
		}
		if !cb.Commit(iv(100)) {
			t.Fatal("uncontended combined commit failed")
		}
		if thr.SingleRead(a) != iv(100) {
			t.Fatal("combined commit did not store")
		}

		// LockRead: validate a read-only key while writing a value.
		ro, _ = thr.ShortRO1(a)
		cb2, old := ro.LockRead(b)
		if old != iv(2) {
			t.Fatalf("LockRead read %v", old)
		}
		if !cb2.Commit(iv(200)) {
			t.Fatal("LockRead combined commit failed")
		}
		if thr.SingleRead(b) != iv(200) {
			t.Fatal("LockRead commit did not store")
		}

		// LockRead after a successful Valid: the validated snapshot is
		// re-opened and revalidated by the combined commit, and the
		// whole flow counts as one short commit, not two.
		before := thr.Stats.ShortCommits
		ro, _ = thr.ShortRO1(a)
		if !ro.Valid() {
			t.Fatal("uncontended RO1 invalid")
		}
		cb3, _ := ro.LockRead(b)
		if !cb3.Commit(iv(300)) {
			t.Fatal("LockRead after Valid failed to commit")
		}
		if thr.SingleRead(b) != iv(300) {
			t.Fatal("LockRead-after-Valid commit did not store")
		}
		if got := thr.Stats.ShortCommits - before; got != 1 {
			t.Fatalf("Valid+LockRead+Commit counted %d short commits, want 1", got)
		}

		// Discard abandons without validating.
		ro3, _, _, _ := thr.ShortRO3(a, b, c)
		ro3.Discard()
		if thr.SingleRead(c) != iv(3) {
			t.Fatal("discard disturbed state")
		}
	})
}

// TestTypedMisuse pins down the runtime behavior the types cannot rule
// out: stale descriptors of the wrong arity panic, double abort is a
// no-op, commit on a conflicted transaction panics, upgrade on a
// conflicted transaction reports failure.
func TestTypedMisuse(t *testing.T) {
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}

	t.Run("stale-arity-commit", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar})
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		d1, _ := thr.ShortRW1(a)
		d2, _ := d1.Extend(b)
		// d1 now describes a transaction that has grown past it.
		mustPanic(t, "commit through stale ShortRW1", func() { d1.Commit(iv(9)) })
		// The record was untouched by the failed commit; clean up.
		if !d2.Valid() {
			t.Fatal("record damaged by stale commit attempt")
		}
		d2.Abort()
	})

	t.Run("stale-arity-ro-valid", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar, MaxThreads: 2})
		thr, writer := e.Register(), e.Register()
		a, b, c := e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3))
		d2, _, _ := thr.ShortRO2(a, b)
		thr.ShortRO1(c) // d2's transaction is over; the record now reads c
		writer.SingleWrite(a, iv(9))
		// Validating the record's one read would report d2's stale
		// snapshot of a as consistent.
		mustPanic(t, "validation through stale ShortRO2", func() { d2.Valid() })
	})

	t.Run("double-abort", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar})
		thr := e.Register()
		a := e.NewVar(iv(1))
		d, _ := thr.ShortRW1(a)
		d.Abort()
		d.Abort() // no-op
		if thr.SingleRead(a) != iv(1) {
			t.Fatal("aborts disturbed the value")
		}
	})

	t.Run("commit-after-abort", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar})
		thr := e.Register()
		a := e.NewVar(iv(1))
		d, _ := thr.ShortRW1(a)
		d.Abort()
		mustPanic(t, "commit after abort", func() { d.Commit(iv(2)) })
	})

	t.Run("conflicted-rw", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar, MaxThreads: 2})
		t1, t2 := e.Register(), e.Register()
		a := e.NewVar(iv(1))
		holder, _ := t1.ShortRW1(a) // t1 holds the lock
		d, _ := t2.ShortRW1(a)      // t2 conflicts immediately
		if d.Valid() {
			t.Fatal("conflicting RW1 reported valid")
		}
		d.Abort() // no-op on a conflicted record
		mustPanic(t, "commit on conflicted record", func() { d.Commit(iv(9)) })
		holder.Abort()
	})

	t.Run("lockread-on-conflicted", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar, MaxThreads: 2})
		t1, t2 := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// t2's snapshot is invalidated by t1's commit before the
		// LockRead: the join must be a no-op and the combined commit
		// must report failure, not panic.
		ro, _ := t2.ShortRO1(a)
		if !DoRW1(t1, a, func(x Value) (Value, bool) { return iv(x.Uint() + 1), true }) {
			t.Fatal("interfering write failed")
		}
		ro2, _ := ro.Extend(b) // per-read validation fails here (or at commit)
		cb, _ := ro2.LockRead(b)
		if cb.Commit(iv(9)) {
			t.Fatal("combined commit succeeded on conflicted record")
		}
		if t2.SingleRead(b) != iv(2) {
			t.Fatal("failed combined commit disturbed state")
		}
	})

	t.Run("upgrade-after-invalid", func(t *testing.T) {
		e := New(Config{Layout: LayoutTVar, MaxThreads: 2})
		t1, t2 := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// t2 opens a snapshot, then t1 commits over it: the upgrade must
		// fail and invalidate the record.
		ro, _ := t2.ShortRO1(a)
		ro2, _ := ro.Extend(b)
		if !DoRW1(t1, a, func(x Value) (Value, bool) { return iv(x.Uint() + 1), true }) {
			t.Fatal("interfering write failed")
		}
		cb, ok := ro2.Upgrade1()
		if ok {
			t.Fatal("upgrade succeeded over a concurrent commit")
		}
		// Every operation on the now-invalid record reports failure.
		if cb.Commit(iv(9)) {
			t.Fatal("commit succeeded on invalid combined record")
		}
		if _, ok := ro2.Upgrade1(); ok {
			t.Fatal("upgrade succeeded on invalid record")
		}
		if ro2.Valid() {
			t.Fatal("validation succeeded on invalid record")
		}
	})
}

// TestShortPathsZeroAlloc is the allocation regression test for the
// paper's core claim: the short-transaction fast paths do no dynamic
// bookkeeping. Every commit/validate shape must run at 0 allocs/op.
func TestShortPathsZeroAlloc(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			thr := e.Register()
			a, b, c, d := e.NewVar(iv(1)), e.NewVar(iv(2)), e.NewVar(iv(3)), e.NewVar(iv(4))

			check := func(what string, fn func()) {
				t.Helper()
				if n := testing.AllocsPerRun(100, fn); n != 0 {
					t.Errorf("%s: %v allocs/op, want 0", what, n)
				}
			}

			check("RW2 commit", func() {
				dd, x, y := thr.ShortRW2(a, b)
				if !dd.Valid() {
					t.Fatal("conflict single-threaded")
				}
				dd.Commit(x, y)
			})
			check("RW4 commit", func() {
				dd, x1, x2, x3, x4 := thr.ShortRW4(a, b, c, d)
				if !dd.Valid() {
					t.Fatal("conflict single-threaded")
				}
				dd.Commit(x1, x2, x3, x4)
			})
			check("RO2 validate", func() {
				dd, _, _ := thr.ShortRO2(a, b)
				if !dd.Valid() {
					t.Fatal("conflict single-threaded")
				}
			})
			check("RO4 validate", func() {
				dd, _, _, _, _ := thr.ShortRO4(a, b, c, d)
				if !dd.Valid() {
					t.Fatal("conflict single-threaded")
				}
			})
			check("upgrade + combined commit", func() {
				ro, x := thr.ShortRO1(a)
				ro2, _ := ro.Extend(b)
				cb, ok := ro2.Upgrade1()
				if !ok || !cb.Commit(x) {
					t.Fatal("conflict single-threaded")
				}
			})
			check("DoRW2", func() {
				DoRW2(thr, a, b, func(x, y Value) (Value, Value, bool) { return x, y, true })
			})
			check("DoRO3", func() {
				DoRO3(thr, a, b, c)
			})
		})
	}
}

// TestDoCombinatorStress drives DoRW2 transfers and DoRO3 audits from
// many goroutines; meant to run under -race. The invariant: the sum
// over all accounts never changes, and no audited 3-window ever exceeds
// the total.
func TestDoCombinatorStress(t *testing.T) {
	const (
		accounts = 8
		initial  = 1000
		writers  = 4
		readers  = 2
		ops      = 3000
	)
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxThreads = writers + readers + 1
			e := New(cfg)
			vars := make([]Var, accounts)
			for i := range vars {
				vars[i] = e.NewVar(iv(initial))
			}

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					thr := e.Register()
					for i := 0; i < ops; i++ {
						src := (seed + uint64(i)) % accounts
						dst := (src + 1 + uint64(i)%(accounts-1)) % accounts
						DoRW2(thr, vars[src], vars[dst],
							func(x, y Value) (Value, Value, bool) {
								if x.Uint() == 0 {
									return 0, 0, false
								}
								return iv(x.Uint() - 1), iv(y.Uint() + 1), true
							})
					}
				}(uint64(w))
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					thr := e.Register()
					for i := 0; i < ops; i++ {
						j := (seed + uint64(i)) % (accounts - 2)
						x, y, z := DoRO3(thr, vars[j], vars[j+1], vars[j+2])
						if x.Uint()+y.Uint()+z.Uint() > accounts*initial {
							t.Error("snapshot exceeds total balance")
							return
						}
					}
				}(uint64(r))
			}
			wg.Wait()

			thr := e.Register()
			var total uint64
			for i := range vars {
				total += thr.SingleRead(vars[i]).Uint()
			}
			if total != accounts*initial {
				t.Fatalf("conservation violated: total %d != %d", total, accounts*initial)
			}
		})
	}
}
