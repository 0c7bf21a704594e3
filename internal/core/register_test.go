package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPublishedPrefix pins the cost model: validation width is the
// number of registered threads, whatever the capacity.
func TestPublishedPrefix(t *testing.T) {
	e := New(Config{Layout: LayoutVal, MaxThreads: 4096})
	for i := 0; i < 3; i++ {
		if id := e.Register().ID(); id != i {
			t.Fatalf("Register #%d got id %d", i, id)
		}
	}
	if e.Threads() != 3 {
		t.Fatalf("Threads = %d with 3 registered of 4096", e.Threads())
	}

	const workers, per = 8, 50
	ids := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], e.Register().ID())
			}
		}(w)
	}
	wg.Wait()
	if want := 3 + workers*per; e.Threads() != want {
		t.Fatalf("Threads = %d after concurrent Register, want %d", e.Threads(), want)
	}
	seen := make(map[int]bool)
	for _, l := range ids {
		for _, id := range l {
			if id < 3 || id >= e.Threads() || seen[id] {
				t.Fatalf("id %d out of the prefix or handed out twice", id)
			}
			seen[id] = true
		}
	}
}

// TestFirstCommitMovesTheClock is the under-coverage hazard of the
// published prefix (see clock.PerThread), one interleaving at a time: a
// thread registers and commits inside a reader's open validation window.
// The swap re-uses both values, so only the commit counters can tell the
// reader its first read is stale; a clock that does not cover the new
// thread's slot yet validates the torn pair (7, 7).
func TestFirstCommitMovesTheClock(t *testing.T) {
	e := New(Config{Layout: LayoutVal, MaxThreads: 64})
	a, b := e.NewVar(iv(7)), e.NewVar(iv(9))
	swap := func() {
		d, x, y := e.Register().ShortRW2(a, b)
		d.Commit(y, x)
	}
	r := e.Register()

	d1, x := r.ShortRO1(a)
	swap()
	if d2, y := d1.Extend(b); d2.Valid() {
		t.Fatalf("short reader validated (%d, %d) across a new thread's first commit", x.Uint(), y.Uint())
	}

	r.TxStart()
	x = r.TxRead(a)
	swap()
	if y := r.TxRead(b); r.TxOK() {
		t.Fatalf("full reader kept (%d, %d) across a new thread's first commit", x.Uint(), y.Uint())
	}
	r.TxCommit()
}

// TestRegisterUnderLoad is the same hazard under load, for -race: threads
// register and commit at once while short and full readers validate
// against the commit counters. Every update keeps its pair's sum, and the
// swaps re-use values, so a validation pass that misses a fresh writer's
// slot accepts a torn pair. It fails within a few hundred registrations
// when the slot is published after the thread's first store phase.
func TestRegisterUnderLoad(t *testing.T) {
	const pairs, total, writers = 4, 1000, 4
	registrations := stressIters(t, 3600)
	e := New(Config{Layout: LayoutVal, MaxThreads: 4096})
	var a, b [pairs]Var
	for i := range a {
		a[i], b[i] = e.NewVar(iv(total)), e.NewVar(iv(0))
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var readers, wg sync.WaitGroup
	// Short readers: ShortRO2 over each pair in turn.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			thr := e.Register()
			for i := 0; !stop.Load(); i++ {
				d, x, y := thr.ShortRO2(a[i%pairs], b[i%pairs])
				if d.Valid() && x.Uint()+y.Uint() != total {
					torn.Add(1)
					return
				}
			}
		}()
	}
	// Full readers: one 8-read transaction over all four pairs.
	readers.Add(1)
	go func() {
		defer readers.Done()
		thr := e.Register()
		var x, y [pairs]Value
		for !stop.Load() {
			thr.Atomic(func() bool {
				for i := range a {
					x[i], y[i] = thr.TxRead(a[i]), thr.TxRead(b[i])
				}
				return true
			})
			for i := range a {
				if x[i].Uint()+y[i].Uint() != total {
					torn.Add(1)
					return
				}
			}
		}
	}()

	var left atomic.Int64
	left.Store(int64(registrations))
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := left.Add(-1); n >= 0 && torn.Load() == 0; n = left.Add(-1) {
				thr := e.Register() // first commit follows immediately
				p := int(n) % pairs
				for k := 0; k < 2; k++ {
					for attempt := 1; ; attempt++ {
						d, x, y := thr.ShortRW2(a[p], b[p])
						if !d.Valid() {
							thr.Backoff(attempt)
							continue
						}
						if k == 0 {
							d.Commit(y, x) // swap: re-uses both values
						} else if x.Uint() > 0 {
							d.Commit(iv(x.Uint()-1), iv(y.Uint()+1))
						} else {
							d.Commit(iv(total), iv(0))
						}
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if torn.Load() != 0 {
		t.Fatalf("a reader validated a torn pair with %d threads registered", e.Threads())
	}
}

// TestSuitesAtCapacity1024 re-runs the opacity and concurrency-control
// suites on engines with 1024 slots and a handful of registered threads:
// nothing in them may depend on capacity, in outcome or in running time.
func TestSuitesAtCapacity1024(t *testing.T) {
	suiteMaxThreads = 1024
	defer func() { suiteMaxThreads = 0 }()
	for _, s := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"TimebaseExtension", TestTimebaseExtension},
		{"ExtensionDetectsStaleRead", TestExtensionDetectsStaleRead},
		{"ZombieReadsAreNull", TestZombieReadsAreNull},
		{"LargeWriteSet", TestLargeWriteSet},
		{"ReadOnlyTxnLinearizesWithWriters", TestReadOnlyTxnLinearizesWithWriters},
		{"ConfigSpace", TestConfigSpace},
		{"LazyAbortsInsteadOfExtending", TestLazyAbortsInsteadOfExtending},
	} {
		t.Run(s.name, s.fn)
	}
}
