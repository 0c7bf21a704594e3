package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestConfigSpace pins the engine's whole option space. Every Layout × CC
// combination either builds through NewChecked and conserves
// money over a two-thread round of mixed short and full transfers, or is
// rejected with an error; the valid set is exactly the one listed here.
func TestConfigSpace(t *testing.T) {
	valid := map[Config]bool{}
	for _, l := range []Layout{LayoutOrec, LayoutTVar} {
		valid[Config{Layout: l}] = true
		valid[Config{Layout: l, CC: CCLocal}] = true
	}
	for _, cc := range []CC{CCTimestampExt, CCNoCounter} {
		valid[Config{Layout: LayoutVal, CC: cc}] = true
	}
	if len(valid) != 6 {
		t.Fatalf("valid table lists %d configurations, want 6", len(valid))
	}
	for l := LayoutVal; l <= LayoutTVar+1; l++ {
		for cc := CCTimestampExt; cc <= CCNoCounter+1; cc++ {
			cfg := Config{Layout: l, CC: cc}
			t.Run(fmt.Sprintf("%v-%v", l, cc), func(t *testing.T) {
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
