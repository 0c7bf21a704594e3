package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestConfigSpace pins the engine's whole option space. Every Layout × CC
// × Snapshots combination either builds through NewChecked and conserves
// money over a two-thread round of mixed short and full transfers, or is
// rejected with an error; the valid set is exactly the one listed here.
func TestConfigSpace(t *testing.T) {
	valid := map[Config]bool{}
	for _, l := range []Layout{LayoutOrec, LayoutTVar} {
		for _, cc := range []CC{CCTimestampExt, CCLazy, CCEager} {
			valid[Config{Layout: l, CC: cc}] = true
			valid[Config{Layout: l, CC: cc, Snapshots: true}] = true
		}
		valid[Config{Layout: l, CC: CCLocal}] = true
	}
	for _, cc := range []CC{CCTimestampExt, CCLazy, CCEager, CCNoCounter} {
		valid[Config{Layout: LayoutVal, CC: cc}] = true
	}
	if len(valid) != 18 {
		t.Fatalf("valid table lists %d configurations, want 18", len(valid))
	}
	for l := LayoutOrec; l <= LayoutVal+1; l++ {
		for cc := CCTimestampExt; cc <= CCNoCounter+1; cc++ {
			for _, snap := range []bool{false, true} {
				cfg := Config{Layout: l, CC: cc, Snapshots: snap}
				t.Run(fmt.Sprintf("%v-%v-snap=%v", l, cc, snap), func(t *testing.T) {
					run := cfg
					run.MaxThreads = suiteMaxThreads
					e, err := NewChecked(run)
					if !valid[cfg] {
						if err == nil {
							t.Fatalf("NewChecked(%+v) built an engine outside the supported space", cfg)
						}
						return
					}
					if err != nil {
						t.Fatalf("NewChecked(%+v): %v", cfg, err)
					}
					transferRound(t, e)
				})
			}
		}
	}
}

// transferRound moves money between four accounts from two threads, one
// alternating short (DoRW2) with full transactions and the other the
// reverse, and checks that the total is conserved.
func transferRound(t *testing.T, e *Engine) {
	const accounts, start = 4, 1000
	iters := stressIters(t, 2000)
	vars := make([]Var, accounts)
	for i := range vars {
		vars[i] = e.NewVar(iv(start))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			thr := e.Register()
			for i := 0; i < iters; i++ {
				from := vars[thr.Rng.Intn(accounts)]
				to := vars[thr.Rng.Intn(accounts)]
				if from == to {
					continue
				}
				if (i+w)%2 == 0 {
					DoRW2(thr, from, to, func(a, b Value) (Value, Value, bool) {
						return iv(a.Uint() - 1), iv(b.Uint() + 1), true
					})
				} else {
					thr.Atomic(func() bool {
						a, b := thr.TxRead(from), thr.TxRead(to)
						if thr.TxOK() {
							thr.TxWrite(from, iv(a.Uint()-1))
							thr.TxWrite(to, iv(b.Uint()+1))
						}
						return true
					})
				}
			}
		}(w)
	}
	wg.Wait()
	thr := e.Register()
	var sum uint64
	for _, v := range vars {
		sum += thr.SingleRead(v).Uint()
	}
	if sum != accounts*start {
		t.Fatalf("total %d after transfers, want %d", sum, accounts*start)
	}
}

// TestCCValidate checks that the impossible policy combinations are
// rejected at construction rather than misbehaving at runtime.
func TestCCValidate(t *testing.T) {
	bad := map[string]Config{
		"nocounter-versioned": {Layout: LayoutTVar, CC: CCNoCounter},
		"local-val":           {Layout: LayoutVal, CC: CCLocal},
		"snapshots-val":       {Layout: LayoutVal, Snapshots: true},
		"snapshots-local":     {Layout: LayoutTVar, CC: CCLocal, Snapshots: true},
		"cc-out-of-range":     {Layout: LayoutTVar, CC: CC(97)},
	}
	for name, cfg := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := NewChecked(cfg); err == nil {
				t.Fatalf("NewChecked(%+v) accepted an invalid policy combination", cfg)
			}
		})
	}
}

// TestLazyAbortsInsteadOfExtending is the CCLazy counterpart of
// TestTimebaseExtension: a classic-TL2 transaction that reads a
// location versioned past its snapshot must abort even though its
// earlier reads still hold.
func TestLazyAbortsInsteadOfExtending(t *testing.T) {
	for _, layout := range []Layout{LayoutOrec, LayoutTVar} {
		e := newTestEngine(Config{Layout: layout, CC: CCLazy})
		reader, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

		reader.TxStart()
		if reader.TxRead(a) != iv(1) {
			t.Fatal("setup read")
		}
		// Advance the clock past the reader's snapshot by committing to
		// an unrelated location: extension would succeed, lazy must not
		// even try.
		writer.SingleWrite(b, iv(3))
		if got := reader.TxRead(b); got != 0 {
			t.Fatalf("lazy read past snapshot returned %v, want Null", got)
		}
		if reader.TxOK() {
			t.Fatal("lazy transaction survived a post-snapshot version")
		}
		if reader.TxCommit() {
			t.Fatal("aborted lazy transaction committed")
		}
		// The retry, with a fresh snapshot, sees both values.
		ok := reader.Atomic(func() bool {
			if reader.TxRead(a) != iv(1) || reader.TxRead(b) != iv(3) {
				t.Fatal("retry read wrong values")
			}
			return true
		})
		if !ok {
			t.Fatal("uncontended lazy retry failed")
		}
	}
}

// eagerConfigs returns the eager-policy engines across all layouts.
func eagerConfigs() map[string]Config {
	return map[string]Config{
		"orec": {Layout: LayoutOrec, CC: CCEager},
		"tvar": {Layout: LayoutTVar, CC: CCEager},
		"val":  {Layout: LayoutVal, CC: CCEager},
	}
}

// TestEagerWriteWriteConflict: under encounter-time locking the second
// writer of a location aborts at TxWrite, not at commit.
func TestEagerWriteWriteConflict(t *testing.T) {
	for name, cfg := range eagerConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(cfg)
			t1, t2 := e.Register(), e.Register()
			a := e.NewVar(iv(1))

			t1.TxStart()
			t1.TxWrite(a, iv(10)) // acquires the write lock now
			if !t1.TxOK() {
				t.Fatal("first writer aborted without contention")
			}

			t2.TxStart()
			t2.TxWrite(a, iv(20)) // must hit t1's lock and abort
			if t2.TxOK() {
				t.Fatal("second writer acquired an already-held write lock")
			}
			if t2.TxCommit() {
				t.Fatal("aborted second writer committed")
			}

			if !t1.TxCommit() {
				t.Fatal("first writer failed to commit")
			}
			if got := t1.SingleRead(a); got != iv(10) {
				t.Fatalf("committed value = %v, want 10", got)
			}
		})
	}
}

// TestEagerAbortReleasesLocks: locks taken at TxWrite must be released
// by TxAbort (and by the internal abort path), or every later writer of
// those words would wedge.
func TestEagerAbortReleasesLocks(t *testing.T) {
	for name, cfg := range eagerConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(cfg)
			t1, t2 := e.Register(), e.Register()
			a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

			t1.TxStart()
			t1.TxWrite(a, iv(10))
			t1.TxWrite(b, iv(20))
			t1.TxAbort()

			// Deferred updates must not have leaked into the data words.
			if got := t2.SingleRead(a); got != iv(1) {
				t.Fatalf("aborted write visible: a = %v", got)
			}
			// Both words must be writable again without spinning forever.
			t2.SingleWrite(a, iv(100))
			t2.SingleWrite(b, iv(200))
			if t2.SingleRead(a) != iv(100) || t2.SingleRead(b) != iv(200) {
				t.Fatal("post-abort writes did not land")
			}

			// The internal abort path (conflict at TxWrite) releases too:
			// t1 locks a, t2 locks b then aborts trying a; b must be free.
			t1.TxStart()
			t1.TxWrite(a, iv(11))
			t2.TxStart()
			t2.TxWrite(b, iv(21))
			t2.TxWrite(a, iv(22))
			if t2.TxOK() {
				t.Fatal("t2 stole t1's lock")
			}
			t1.TxAbort()
			t2.TxAbort() // aborted txn: must be a no-op, not a double release
			t1.SingleWrite(b, iv(300))
			if t1.SingleRead(b) != iv(300) {
				t.Fatal("b still locked after t2's conflict abort")
			}
		})
	}
}

// TestEagerReadsOwnWrites: a read of a word the transaction has eagerly
// locked must return the pending (deferred) value, not the stale data
// word, and the commit must publish it.
func TestEagerReadsOwnWrites(t *testing.T) {
	for name, cfg := range eagerConfigs() {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(cfg)
			thr := e.Register()
			a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

			ok := thr.Atomic(func() bool {
				thr.TxWrite(a, iv(10))
				if got := thr.TxRead(a); got != iv(10) {
					t.Fatalf("read-own-write = %v, want 10", got)
				}
				if got := thr.TxRead(b); got != iv(2) {
					t.Fatalf("unrelated read = %v, want 2", got)
				}
				thr.TxWrite(a, iv(11)) // rewrite of an owned word
				thr.TxWrite(b, iv(12))
				return true
			})
			if !ok {
				t.Fatal("uncontended eager transaction failed")
			}
			if thr.SingleRead(a) != iv(11) || thr.SingleRead(b) != iv(12) {
				t.Fatal("eager commit did not publish")
			}
		})
	}
}

// TestEagerOrecAliasing: with a tiny orec table, reads of unwritten
// words whose orec the transaction already owns must read through its
// own lock (the data word is untouched — updates are deferred), and the
// commit must still publish exactly the written words.
func TestEagerOrecAliasing(t *testing.T) {
	e := newTestEngine(Config{Layout: LayoutOrec, CC: CCEager, OrecBits: 2})
	thr := e.Register()
	const n = 8
	w := make([]Var, n)
	r := make([]Var, n)
	for i := range w {
		w[i] = e.NewVar(iv(uint64(i)))
		r[i] = e.NewVar(iv(uint64(1000 + i)))
	}
	ok := thr.Atomic(func() bool {
		for i := range w {
			thr.TxWrite(w[i], iv(uint64(100+i)))
		}
		// Every orec is now self-owned; these reads all go through the
		// transaction's own locks.
		for i := range r {
			if got := thr.TxRead(r[i]); got != iv(uint64(1000+i)) {
				t.Fatalf("aliased read r[%d] = %v", i, got)
			}
		}
		return true
	})
	if !ok {
		t.Fatal("uncontended aliasing transaction failed")
	}
	for i := range w {
		if got := thr.SingleRead(w[i]); got != iv(uint64(100+i)) {
			t.Fatalf("w[%d] = %v after commit", i, got)
		}
		if got := thr.SingleRead(r[i]); got != iv(uint64(1000+i)) {
			t.Fatalf("r[%d] = %v after commit (unwritten word changed)", i, got)
		}
	}
}
