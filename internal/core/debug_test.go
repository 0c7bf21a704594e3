package core

import "testing"

func debugEngine() *Engine {
	return New(Config{Layout: LayoutTVar, Debug: true})
}

func mustPanicWith(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !contains(msg, substr) {
			t.Fatalf("panic %v does not mention %q", r, substr)
		}
	}()
	fn()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDebugDisjointnessRWAfterRO(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	ro, _ := thr.ShortRO1(a)
	mustPanicWith(t, "disjoint", func() { ro.LockRead(a) })
	thr.ShortDiscard()
}

func TestDebugDisjointnessROAfterRW(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
	// Build a combined record legally, then violate disjointness with a
	// later RO index through the superseded read-only descriptor.
	ro, _ := thr.ShortRO1(b)
	ro.LockRead(a)
	mustPanicWith(t, "disjoint", func() { ro.Extend(a) })
	thr.ShortDiscard()
}

func TestDebugDuplicateRWLocation(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	d, _ := thr.ShortRW1(a)
	mustPanicWith(t, "distinct", func() { d.Extend(a) })
	thr.ShortDiscard()
}

func TestDebugDuplicateROLocation(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	mustPanicWith(t, "duplicate", func() { thr.ShortRO2(a, a) })
	thr.ShortDiscard()
}

func TestDebugTxStartWithHeldLocks(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	thr.ShortRW1(a)
	mustPanicWith(t, "holds locks", func() { thr.TxStart() })
	thr.ShortDiscard()
}

func TestDebugTxOpsOutsideTxn(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	mustPanicWith(t, "outside", func() { thr.TxRead(a) })
	mustPanicWith(t, "outside", func() { thr.TxWrite(a, iv(2)) })
}

func TestDebugValueCheckOnVersionedLayouts(t *testing.T) {
	e := debugEngine()
	thr := e.Register()
	a := e.NewVar(iv(1))
	thr.TxStart()
	mustPanicWith(t, "lock bit", func() { thr.TxWrite(a, Value(1)) })
	thr.TxAbort()
}

// TestDebugAllowsLegalPrograms runs the normal flows under Debug to make
// sure the checks have no false positives.
func TestDebugAllowsLegalPrograms(t *testing.T) {
	for _, cfg := range []Config{
		{Layout: LayoutOrec, Debug: true},
		{Layout: LayoutTVar, Debug: true},
		{Layout: LayoutVal, Debug: true},
	} {
		e := New(cfg)
		thr := e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))
		// Short RW.
		d, x, _ := thr.ShortRW2(a, b)
		if !d.Valid() {
			t.Fatal("legal RW flagged")
		}
		d.Commit(iv(x.Uint()+1), iv(9))
		// Combined.
		ro, _ := thr.ShortRO1(a)
		if cb, _ := ro.LockRead(b); !cb.Commit(iv(10)) {
			t.Fatal("legal combined flagged")
		}
		// Upgrade.
		ro2, _, _ := thr.ShortRO2(a, b)
		if cb, ok := ro2.Upgrade1(); !ok || !cb.Commit(iv(5)) {
			t.Fatal("legal upgrade flagged")
		}
		// Full transaction.
		ok := thr.Atomic(func() bool {
			v := thr.TxRead(a)
			thr.TxWrite(a, iv(v.Uint()+1))
			return true
		})
		if !ok {
			t.Fatal("legal full txn flagged")
		}
	}
}
