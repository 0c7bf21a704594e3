package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestTimebaseExtension exercises the TL2 snapshot-extension path: a
// transaction that reads a freshly updated location after its snapshot
// must extend rather than abort when its earlier reads still hold.
func TestTimebaseExtension(t *testing.T) {
	for _, layout := range []Layout{LayoutOrec, LayoutTVar} {
		e := newTestEngine(Config{Layout: layout})
		reader, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

		reader.TxStart()
		if reader.TxRead(a) != iv(1) {
			t.Fatal("setup read")
		}
		// Advance the clock past the reader's snapshot by committing to
		// an unrelated location.
		writer.SingleWrite(b, iv(3))
		// Reading b now sees a version beyond the snapshot; extension
		// must succeed because a is untouched.
		if got := reader.TxRead(b); got != iv(3) {
			t.Fatalf("read after extension = %v", got)
		}
		if !reader.TxOK() {
			t.Fatal("extension aborted a valid transaction")
		}
		if !reader.TxCommit() {
			t.Fatal("commit after extension failed")
		}
	}
}

// TestExtensionDetectsStaleRead: if the earlier read IS stale, the
// extension must abort the transaction.
func TestExtensionDetectsStaleRead(t *testing.T) {
	for _, layout := range []Layout{LayoutOrec, LayoutTVar} {
		e := newTestEngine(Config{Layout: layout})
		reader, writer := e.Register(), e.Register()
		a, b := e.NewVar(iv(1)), e.NewVar(iv(2))

		reader.TxStart()
		if reader.TxRead(a) != iv(1) {
			t.Fatal("setup read")
		}
		writer.SingleWrite(a, iv(10)) // invalidates the read
		writer.SingleWrite(b, iv(20)) // advances the clock further
		reader.TxRead(b)
		if reader.TxOK() {
			t.Fatal("reading past a stale snapshot must abort")
		}
		if reader.TxCommit() {
			t.Fatal("stale transaction committed")
		}
	}
}

// TestZombieReadsAreNull: after a conflict abort, every subsequent read
// returns Null and the commit fails, so control flow on zombie values is
// bounded.
func TestZombieReadsAreNull(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		if e.Config().CC == CCNoCounter {
			t.Skip("val-nocounter aborts on value change only")
		}
		reader, writer := e.Register(), e.Register()
		a := e.NewVar(iv(1))
		reader.TxStart()
		reader.TxRead(a)
		writer.SingleWrite(a, iv(5))
		writer.SingleWrite(a, iv(6))
		// Re-reading the changed location forces detection on every
		// engine: local modes validate the read set, the global mode
		// fails its snapshot extension, and counter-mode val revalidates
		// by value. (Reading an untouched location instead would be
		// legal — the transaction would simply keep its older snapshot.)
		got := reader.TxRead(a)
		if reader.TxOK() {
			t.Fatalf("transaction still OK after re-reading a changed location (layout %v)", e.Config().Layout)
		}
		if got != 0 {
			t.Fatalf("aborted read returned %v, want Null", got)
		}
		if reader.TxRead(a) != 0 {
			t.Fatal("zombie read returned data")
		}
		if reader.TxCommit() {
			t.Fatal("zombie transaction committed")
		}
	})
}

// TestLargeWriteSet pushes a full transaction well past the small-scan
// path, including orec-table aliasing at scale.
func TestLargeWriteSet(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			cfg.OrecBits = 4 // force many duplicate orecs under LayoutOrec
			e := newTestEngine(cfg)
			thr := e.Register()
			const n = 200
			vars := make([]Var, n)
			for i := range vars {
				vars[i] = e.NewVar(iv(uint64(i)))
			}
			ok := thr.Atomic(func() bool {
				for i := range vars {
					v := thr.TxRead(vars[i])
					if !thr.TxOK() {
						return true
					}
					thr.TxWrite(vars[i], iv(v.Uint()+1000))
				}
				return true
			})
			if !ok {
				t.Fatal("large uncontended transaction failed")
			}
			for i := range vars {
				if got := thr.SingleRead(vars[i]).Uint(); got != uint64(i)+1000 {
					t.Fatalf("vars[%d] = %d", i, got)
				}
			}
		})
	}
}

// TestReadOnlyTxnLinearizesWithWriters runs long read-only transactions
// against a writer flipping two words in lockstep; committed RO results
// must always be consistent.
func TestReadOnlyTxnLinearizesWithWriters(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, e *Engine) {
		if e.Config().CC == CCNoCounter {
			t.Skip("val-nocounter needs non-re-used values")
		}
		a, b := e.NewVar(iv(0)), e.NewVar(iv(0))
		var stop atomic.Bool
		var torn atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := e.Register()
			for !stop.Load() {
				var x, y Value
				ok := thr.Atomic(func() bool {
					x = thr.TxRead(a)
					y = thr.TxRead(b)
					return true
				})
				if ok && x != y {
					torn.Add(1)
					return
				}
			}
		}()
		writer := e.Register()
		iters := stressIters(t, 3000)
		for i := 1; i <= iters; i++ {
			writer.Atomic(func() bool {
				writer.TxWrite(a, iv(uint64(i)))
				writer.TxWrite(b, iv(uint64(i)))
				return true
			})
		}
		stop.Store(true)
		wg.Wait()
		if torn.Load() != 0 {
			t.Fatal("read-only transaction observed torn pair")
		}
	})
}
