// End-to-end over the public spectm surface only: every layout × CC
// policy combination the options constructor accepts runs a concurrent
// bank-transfer workload and must conserve the total. This is the
// engine leg of the tests/ tree — the deep per-protocol batteries live
// in internal/core; this pins the public API composition.
package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"spectm"
)

func configs() map[string][]spectm.Option {
	return map[string][]spectm.Option{
		"default":        nil,
		"orec-local":     {spectm.WithLayout(spectm.LayoutOrec), spectm.WithCC(spectm.CCLocal)},
		"tvar":           {spectm.WithLayout(spectm.LayoutTVar)},
		"val":            {spectm.WithLayout(spectm.LayoutVal)},
		"val-nocounter":  {spectm.WithLayout(spectm.LayoutVal), spectm.WithCC(spectm.CCNoCounter)},
		"tiny-orec-tabl": {spectm.WithLayout(spectm.LayoutOrec), spectm.WithOrecBits(4)}, // forced false conflicts
	}
}

func TestPublicAPITransfersConserve(t *testing.T) {
	const (
		accounts = 64
		seedBal  = 100
		rounds   = 2000
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	for name, opts := range configs() {
		t.Run(name, func(t *testing.T) {
			e, err := spectm.NewEngine(opts...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			vars := make([]spectm.Var, accounts)
			for i := range vars {
				vars[i] = e.NewVar(spectm.FromUint(seedBal))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					thr := e.Register()
					for i := 0; i < rounds; i++ {
						from := (w*31 + i*7) % accounts
						to := (from + 1 + i%13) % accounts
						if from == to {
							continue
						}
						spectm.DoRW2(thr, vars[from], vars[to],
							func(a, b spectm.Value) (spectm.Value, spectm.Value, bool) {
								if a.Uint() == 0 {
									return a, b, false
								}
								return spectm.FromUint(a.Uint() - 1), spectm.FromUint(b.Uint() + 1), true
							})
					}
				}()
			}
			wg.Wait()
			thr := e.Register()
			var total uint64
			for _, v := range vars {
				total += spectm.DoRO1(thr, v).Uint()
			}
			if want := uint64(accounts * seedBal); total != want {
				t.Fatalf("conservation broken: total %d, want %d", total, want)
			}
		})
	}
}

// TestPublicAPIRejectsInvalid pins that the constructor refuses
// combinations a layout would silently ignore.
func TestPublicAPIRejectsInvalid(t *testing.T) {
	bad := map[string][]spectm.Option{
		"nocounter-needs-val": {spectm.WithLayout(spectm.LayoutTVar), spectm.WithCC(spectm.CCNoCounter)},
		"orecbits-needs-orec": {spectm.WithLayout(spectm.LayoutVal), spectm.WithOrecBits(8)},
	}
	for name, opts := range bad {
		if _, err := spectm.NewEngine(opts...); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestPublicAPIMapRecovery closes a persistent map and reopens it over
// the same directory through the public OpenMap surface.
func TestPublicAPIMapRecovery(t *testing.T) {
	dir := t.TempDir()
	e := spectm.New(spectm.WithLayout(spectm.LayoutVal))
	m, err := spectm.OpenMap(e, dir, spectm.WithPersistence(dir, spectm.FsyncEveryN(1)))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	for i := 0; i < 100; i++ {
		th.Put(fmt.Sprintf("k%d", i), spectm.FromUint(uint64(i)))
	}
	th.Delete("k7")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := spectm.New(spectm.WithLayout(spectm.LayoutVal))
	m2, err := spectm.OpenMap(e2, dir, spectm.WithPersistence(dir, spectm.FsyncEveryN(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	th2 := m2.NewThread()
	if _, ok := th2.Get("k7"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	for _, i := range []int{0, 1, 50, 99} {
		v, ok := th2.Get(fmt.Sprintf("k%d", i))
		if !ok || v.Uint() != uint64(i) {
			t.Fatalf("k%d = (%v, %v) after recovery", i, v.Uint(), ok)
		}
	}
}
