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
		for _, cc := range []CC{CCTimestampExt, CCLazy} {
			valid[Config{Layout: l, CC: cc}] = true
			valid[Config{Layout: l, CC: cc, Snapshots: true}] = true
		}
		valid[Config{Layout: l, CC: CCLocal}] = true
	}
	for _, cc := range []CC{CCTimestampExt, CCNoCounter} {
		valid[Config{Layout: LayoutVal, CC: cc}] = true
	}
	if len(valid) != 12 {
		t.Fatalf("valid table lists %d configurations, want 12", len(valid))
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
		"lazy-val":            {Layout: LayoutVal, CC: CCLazy},
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
