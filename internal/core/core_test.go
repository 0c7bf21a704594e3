package core

import (
	"fmt"
	"testing"

	"spectm/internal/word"
)

// configs returns every engine configuration exercised by the paper's
// variant grid, keyed by a label matching the paper's naming, plus the
// non-default concurrency-control policies.
func configs() map[string]Config {
	return map[string]Config{
		"orec-g":        {Layout: LayoutOrec},
		"orec-l":        {Layout: LayoutOrec, CC: CCLocal},
		"tvar-g":        {Layout: LayoutTVar},
		"tvar-l":        {Layout: LayoutTVar, CC: CCLocal},
		"val":           {Layout: LayoutVal},
		"val-nocounter": {Layout: LayoutVal, CC: CCNoCounter},
	}
}

func forAllConfigs(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Helper()
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) { fn(t, newTestEngine(cfg)) })
	}
}

// suiteMaxThreads is the capacity newTestEngine gives engines that do not
// ask for one; 0 selects the default. TestSuitesAtCapacity1024 raises it
// to re-run whole suites on a mostly empty engine.
var suiteMaxThreads int

func newTestEngine(cfg Config) *Engine {
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = suiteMaxThreads
	}
	return New(cfg)
}

func iv(u uint64) Value { return word.FromUint(u) }

func TestSingleReadWrite(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(5))
		if got := thr.SingleRead(v); got != iv(5) {
			t.Fatalf("initial read = %v, want %v", got, iv(5))
		}
		thr.SingleWrite(v, iv(9))
		if got := thr.SingleRead(v); got != iv(9) {
			t.Fatalf("read after write = %v, want %v", got, iv(9))
		}
	})
}

// TestWordVar: an 8-byte Word carries single-location and short
// transactions on every layout but LayoutTVar, whose WordVar panics;
// Touch sees committed values.
func TestWordVar(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		var w [2]Word
		w[0].Init(iv(1))
		w[1].Init(iv(2))
		if e.Layout() == LayoutTVar {
			defer func() {
				if recover() == nil {
					t.Fatal("WordVar on a tvar engine did not panic")
				}
			}()
		}
		a, b := e.WordVar(&w[0], 1), e.WordVar(&w[1], 2)
		thr := e.Register()
		if thr.SingleCAS(a, iv(1), iv(3)) != iv(1) {
			t.Fatal("SingleCAS on a Word failed")
		}
		d, va, vb := thr.ShortRW2(a, b)
		if !d.Valid() || va != iv(3) || vb != iv(2) {
			t.Fatalf("ShortRW2 read %v, %v (valid %v), want 3, 2", va.Uint(), vb.Uint(), d.Valid())
		}
		d.Commit(vb, va)
		if w[0].Touch() != uint64(iv(2)) || w[1].Touch() != uint64(iv(3)) {
			t.Fatalf("Touch after the swap = %#x, %#x", w[0].Touch(), w[1].Touch())
		}
	})
}

func TestSingleCAS(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(1))
		if got := thr.SingleCAS(v, iv(1), iv(2)); got != iv(1) {
			t.Fatalf("successful CAS witnessed %v, want %v", got, iv(1))
		}
		if got := thr.SingleRead(v); got != iv(2) {
			t.Fatalf("value after CAS = %v", got)
		}
		if got := thr.SingleCAS(v, iv(1), iv(3)); got != iv(2) {
			t.Fatalf("failed CAS witnessed %v, want %v", got, iv(2))
		}
		if got := thr.SingleRead(v); got != iv(2) {
			t.Fatalf("failed CAS must not write, got %v", got)
		}
	})
}

func TestShortRWCommit(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		d, x, y := thr.ShortRW2(a, b)
		if !d.Valid() {
			t.Fatal("uncontended RW transaction must be valid")
		}
		if x != iv(1) || y != iv(2) {
			t.Fatalf("reads = %v,%v", x, y)
		}
		d.Commit(iv(10), iv(20))
		if thr.SingleRead(a) != iv(10) || thr.SingleRead(b) != iv(20) {
			t.Fatal("commit did not publish")
		}
	})
}

func TestShortRWAbortRestores(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		d2, _, _ := thr.ShortRW2(a, b)
		d2.Abort()
		if thr.SingleRead(a) != iv(1) || thr.SingleRead(b) != iv(2) {
			t.Fatal("abort must restore original values")
		}
		// The variables must be usable afterwards (locks released).
		d1, _ := thr.ShortRW1(a)
		if !d1.Valid() {
			t.Fatal("location still locked after abort")
		}
		d1.Commit(iv(7))
		if thr.SingleRead(a) != iv(7) {
			t.Fatal("commit after abort failed")
		}
	})
}

func TestShortRWConflictAndRestart(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		t1, t2 := e.Register(), e.Register()
		v := e.NewVar(iv(1))
		// t1 locks v via an RW read and sits on it.
		d1, _ := t1.ShortRW1(v)
		if !d1.Valid() {
			t.Fatal("t1 lock failed")
		}
		// t2 must conservatively detect the conflict.
		if d2, _ := t2.ShortRW1(v); d2.Valid() {
			t.Fatal("t2 must observe a conflict on the locked location")
		}
		d1.Commit(iv(2))
		// Restart: t2 succeeds now.
		d2, got := t2.ShortRW1(v)
		if got != iv(2) || !d2.Valid() {
			t.Fatalf("t2 restart read %v valid=%v", got, d2.Valid())
		}
		d2.Commit(iv(3))
		if t1.SingleRead(v) != iv(3) {
			t.Fatal("t2 commit lost")
		}
		if t2.Stats.ShortAborts == 0 || t2.Stats.ShortCommits == 0 {
			t.Fatalf("stats not recorded: %+v", t2.Stats)
		}
	})
}

func TestShortROValidates(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		d1, got := thr.ShortRO1(a)
		if got != iv(1) {
			t.Fatalf("RO read1 = %v", got)
		}
		d2, got := d1.Extend(b)
		if got != iv(2) {
			t.Fatalf("RO read2 = %v", got)
		}
		if !d2.Valid() {
			t.Fatal("quiescent RO transaction must validate")
		}
	})
}

func TestShortRODetectsIntermediateWrite(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		reader, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		d1, got := reader.ShortRO1(a)
		if got != iv(1) {
			t.Fatalf("read1 = %v", got)
		}
		writer.SingleWrite(a, iv(99))
		if d2, _ := d1.Extend(b); d2.Valid() {
			t.Fatal("validation must fail: location a changed after it was read")
		}
	})
}

func TestShortROOpacityBetweenReads(t *testing.T) {
	// After a writes-in-between, the second read must not silently produce
	// a state mixing old a with new b (except in the explicitly unsafe
	// val-nocounter mode, whose soundness relies on non-re-use).
	for name, cfg := range configs() {
		if cfg.CC == CCNoCounter {
			continue
		}
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			reader, writer := e.Register(), e.Register()
			a, b := e.NewVar(iv(1)), e.NewVar(iv(1))
			d1, x := reader.ShortRO1(a)
			if x != iv(1) {
				t.Fatal("setup")
			}
			// Writer advances both variables atomically.
			w, _, _ := writer.ShortRW2(a, b)
			w.Commit(iv(2), iv(2))
			// The reader's second read can only succeed if the whole
			// snapshot is consistent; reading b==2 with a==1 recorded
			// must invalidate.
			d2, got := d1.Extend(b)
			if d2.Valid() && got == iv(2) {
				t.Fatalf("opacity violation: snapshot mixes a=1 with b=2")
			}
		})
	}
}

func TestUpgradeAndCombinedCommit(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// Read both, decide to write a.
		ro, x, y := thr.ShortRO2(a, b)
		if x != iv(1) || y != iv(2) {
			t.Fatal("setup reads")
		}
		cb, ok := ro.Upgrade1()
		if !ok {
			t.Fatal("quiescent upgrade must succeed")
		}
		if !cb.Commit(iv(5)) {
			t.Fatal("combined commit must succeed")
		}
		if thr.SingleRead(a) != iv(5) || thr.SingleRead(b) != iv(2) {
			t.Fatal("combined commit published wrong values")
		}
	})
}

func TestUpgradeFailsAfterConflict(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr, writer := e.Register(), e.Register()
		a := e.NewVar(iv(1))
		ro, x := thr.ShortRO1(a)
		if x != iv(1) {
			t.Fatal("setup")
		}
		writer.SingleWrite(a, iv(2))
		if _, ok := ro.Upgrade(); ok {
			t.Fatal("upgrade must fail after the location changed")
		}
		if ro.Valid() {
			t.Fatal("record must be invalid after failed upgrade")
		}
		// The location must not be locked.
		if writer.SingleRead(a) != iv(2) {
			t.Fatal("location corrupted by failed upgrade")
		}
	})
}

func TestCombinedCommitFailsOnROConflict(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		ro, x, y := thr.ShortRO2(a, b)
		if x != iv(1) || y != iv(2) {
			t.Fatal("setup")
		}
		cb, ok := ro.Upgrade1()
		if !ok {
			t.Fatal("upgrade")
		}
		// b (read-only) changes while we hold a's lock.
		writer.SingleWrite(b, iv(9))
		if cb.Commit(iv(5)) {
			t.Fatal("commit must fail: read-only member changed")
		}
		// Everything released, nothing published.
		if writer.SingleRead(a) != iv(1) || writer.SingleRead(b) != iv(9) {
			t.Fatal("failed combined commit corrupted state")
		}
	})
}

func TestDCSSSemantics(t *testing.T) {
	// The paper's §2.2 DCSS example, run through every configuration. A
	// mismatch on the first read validates the one-read snapshot.
	dcss := func(thr *Thr, a1, a2 Var, o1, o2, n1 Value) bool {
		for {
			d1, x1 := thr.ShortRO1(a1)
			if x1 != o1 {
				if d1.Valid() {
					return false
				}
				continue
			}
			d2, x2 := d1.Extend(a2)
			if x2 == o2 {
				if cb, ok := d2.Upgrade1(); ok && cb.Commit(n1) {
					return true
				}
			} else if d2.Valid() {
				return false
			}
			// conflict: restart
		}
	}
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a1, a2 := e.NewVar(iv(1)), e.NewVar(iv(2))
		if !dcss(thr, a1, a2, iv(1), iv(2), iv(10)) {
			t.Fatal("matching DCSS must succeed")
		}
		if thr.SingleRead(a1) != iv(10) {
			t.Fatal("DCSS did not write")
		}
		if dcss(thr, a1, a2, iv(1), iv(2), iv(11)) {
			t.Fatal("stale DCSS must fail")
		}
		if thr.SingleRead(a1) != iv(10) {
			t.Fatal("failed DCSS must not write")
		}
		if !dcss(thr, a1, a2, iv(10), iv(2), iv(12)) {
			t.Fatal("fresh DCSS must succeed")
		}
	})
}

func TestFullTxnReadYourWrites(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(1))
		thr.TxStart()
		if got := thr.TxRead(v); got != iv(1) {
			t.Fatalf("TxRead = %v", got)
		}
		thr.TxWrite(v, iv(2))
		if got := thr.TxRead(v); got != iv(2) {
			t.Fatalf("read-after-write = %v, want pending value", got)
		}
		// Deferred updates: not visible before commit.
		if peek := e.Register().SingleRead(v); peek != iv(1) {
			t.Fatalf("uncommitted write leaked: %v", peek)
		}
		if !thr.TxCommit() {
			t.Fatal("uncontended commit failed")
		}
		if thr.SingleRead(v) != iv(2) {
			t.Fatal("commit did not publish")
		}
	})
}

func TestFullTxnAbortPublishesNothing(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(1))
		thr.TxStart()
		thr.TxWrite(v, iv(2))
		thr.TxAbort()
		if thr.SingleRead(v) != iv(1) {
			t.Fatal("user abort leaked a write")
		}
	})
}

func TestFullTxnConflictAborts(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		thr.TxStart()
		if thr.TxRead(a) != iv(1) {
			t.Fatal("setup")
		}
		writer.SingleWrite(a, iv(7))
		thr.TxWrite(b, iv(9))
		if thr.TxCommit() {
			t.Fatal("commit must fail: read set changed")
		}
		if writer.SingleRead(b) != iv(2) {
			t.Fatal("failed commit leaked a write")
		}
	})
}

func TestFullTxnWriteOnly(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		thr.TxStart()
		thr.TxWrite(a, iv(10))
		thr.TxWrite(b, iv(20))
		if !thr.TxCommit() {
			t.Fatal("write-only commit failed")
		}
		if thr.SingleRead(a) != iv(10) || thr.SingleRead(b) != iv(20) {
			t.Fatal("write-only commit lost updates")
		}
	})
}

func TestFullTxnOverwriteInWriteSet(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		a := e.NewVar(iv(1))
		thr.TxStart()
		thr.TxWrite(a, iv(2))
		thr.TxWrite(a, iv(3))
		if got := thr.TxRead(a); got != iv(3) {
			t.Fatalf("latest pending write = %v", got)
		}
		if !thr.TxCommit() {
			t.Fatal("commit failed")
		}
		if thr.SingleRead(a) != iv(3) {
			t.Fatal("wrong value published")
		}
	})
}

func TestAtomicRetriesToSuccess(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(0))
		for i := 0; i < 100; i++ {
			ok := thr.Atomic(func() bool {
				cur := thr.TxRead(v)
				thr.TxWrite(v, iv(cur.Uint()+1))
				return true
			})
			if !ok {
				t.Fatal("Atomic returned false without user abort")
			}
		}
		if got := thr.SingleRead(v).Uint(); got != 100 {
			t.Fatalf("counter = %d, want 100", got)
		}
	})
}

func TestAtomicUserAbort(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(1))
		ok := thr.Atomic(func() bool {
			thr.TxWrite(v, iv(99))
			return false
		})
		if ok {
			t.Fatal("user abort must return false")
		}
		if thr.SingleRead(v) != iv(1) {
			t.Fatal("user abort leaked a write")
		}
	})
}

func TestMixShortAndFullOnSameData(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		thr := e.Register()
		v := e.NewVar(iv(0))
		// Alternate increments through every API against the same word.
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				d, cur := thr.ShortRW1(v)
				if !d.Valid() {
					t.Fatal("short conflict in single-threaded test")
				}
				d.Commit(iv(cur.Uint() + 1))
			case 1:
				thr.Atomic(func() bool {
					cur := thr.TxRead(v)
					thr.TxWrite(v, iv(cur.Uint()+1))
					return true
				})
			default:
				for {
					cur := thr.SingleRead(v)
					if thr.SingleCAS(v, cur, iv(cur.Uint()+1)) == cur {
						break
					}
				}
			}
		}
		if got := thr.SingleRead(v).Uint(); got != 30 {
			t.Fatalf("mixed-API counter = %d, want 30", got)
		}
	})
}

func TestOrecCollisionWithinOneTxn(t *testing.T) {
	// A tiny orec table forces distinct locations to share an orec; a
	// short RW transaction and a full transaction over both locations
	// must still commit (lock aliasing, not self-deadlock).
	e := New(Config{Layout: LayoutOrec, OrecBits: 1}) // 2 orecs
	thr := e.Register()
	vars := make([]Var, 8)
	for i := range vars {
		vars[i] = e.NewVar(iv(uint64(i)))
	}
	// With 8 vars on 2 orecs the pigeonhole principle guarantees a
	// colliding pair; find one.
	ai, bi := -1, -1
	for i := 0; i < len(vars) && ai < 0; i++ {
		for j := i + 1; j < len(vars); j++ {
			if vars[i].meta == vars[j].meta {
				ai, bi = i, j
				break
			}
		}
	}
	if ai < 0 {
		t.Fatal("expected an orec collision with a 2-entry table")
	}
	a, b := vars[ai], vars[bi]

	d, x, y := thr.ShortRW2(a, b)
	if !d.Valid() {
		t.Fatal("colliding locations in one short txn must alias, not conflict")
	}
	d.Commit(iv(x.Uint()+100), iv(y.Uint()+100))
	if thr.SingleRead(a).Uint() != uint64(ai)+100 || thr.SingleRead(b).Uint() != uint64(bi)+100 {
		t.Fatal("colliding commit published wrong values")
	}

	ok := thr.Atomic(func() bool {
		va := thr.TxRead(a)
		vb := thr.TxRead(b)
		thr.TxWrite(a, iv(va.Uint()+1))
		thr.TxWrite(b, iv(vb.Uint()+1))
		return true
	})
	if !ok {
		t.Fatal("full transaction over colliding orecs failed")
	}
	if thr.SingleRead(a).Uint() != uint64(ai)+101 || thr.SingleRead(b).Uint() != uint64(bi)+101 {
		t.Fatal("full colliding commit published wrong values")
	}
}

func TestMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		})
	}
	e := New(Config{Layout: LayoutTVar})
	thr := e.Register()
	v := e.NewVar(iv(1))

	// A descriptor kept past its transaction drives the next one's record
	// at the wrong index.
	stale, _, _ := thr.ShortRW2(v, e.NewVar(iv(2)))
	stale.Abort()
	mustPanic("out-of-order RW read", func() {
		d, _ := thr.ShortRW1(v)
		defer d.Abort()
		stale.Extend(e.NewVar(iv(3))) // third read of a 1-location record
	})
	mustPanic("commit arity mismatch", func() {
		d, _ := thr.ShortRW1(v)
		defer d.Abort()
		stale.Commit(iv(1), iv(2))
	})
	mustPanic("commit without start", func() {
		ee := New(Config{Layout: LayoutTVar})
		ee.Register().TxCommit()
	})

	ev := New(Config{Layout: LayoutVal})
	tval := ev.Register()
	mustPanic("unencodable value on val layout", func() {
		d, _ := tval.ShortRW1(ev.NewVar(iv(1)))
		defer d.Abort()
		d.Commit(Value(3)) // bit0 set
	})
}

func TestRegisterBeyondMaxThreadsPanics(t *testing.T) {
	e := New(Config{Layout: LayoutTVar, MaxThreads: 2})
	e.Register()
	e.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("third Register must panic with MaxThreads=2")
		}
	}()
	e.Register()
}

func TestVariantLabels(t *testing.T) {
	if LayoutOrec.String() != "orec" || LayoutTVar.String() != "tvar" || LayoutVal.String() != "val" {
		t.Fatal("layout labels")
	}
	if CCTimestampExt.String() != "ext" || CCLocal.String() != "local" || CCNoCounter.String() != "nocounter" {
		t.Fatal("cc labels")
	}
	if fmt.Sprintf("%v-%v", LayoutOrec, CCLocal) != "orec-local" {
		t.Fatal("label composition")
	}
}
