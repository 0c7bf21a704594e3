// Model-based oracle tests: random operation sequences run against both
// the transactional map and a trivially correct reference, and every
// observable result must agree.
//
//   - The sequential oracle checks every operation's result exactly —
//     get/put/update/delete/CAS/swap2/batch over uniform and zipf keys.
//   - The concurrent oracle gives each goroutine its own key space, so
//     each per-goroutine result log is checkable against a per-goroutine
//     reference (ops on disjoint keys must behave like isolated maps),
//     while shared-key read-only traffic (GetBatch across spaces)
//     exercises cross-shard snapshots; the final global state must equal
//     the union of the references.
//   - The recovery oracle closes the persistent map mid-sequence and
//     re-opens it: the recovered contents must equal the reference.
//
// All tests are seedable (-seed style via the table below) and shrink
// under -short.
package shardmap

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// model is the mutex-guarded reference map.
type model struct {
	mu sync.Mutex
	m  map[string]word.Value
}

func newModel() *model { return &model{m: map[string]word.Value{}} }

func (r *model) get(k string) (word.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}

func (r *model) put(k string, v word.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[k]
	r.m[k] = v
	return !ok
}

func (r *model) update(k string, v word.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; !ok {
		return false
	}
	r.m[k] = v
	return true
}

func (r *model) del(k string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[k]
	delete(r.m, k)
	return ok
}

func (r *model) cas(k string, old, new word.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[k]; ok && v == old {
		r.m[k] = new
		return true
	}
	return false
}

func (r *model) swap2(k1, k2 string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	v1, ok1 := r.m[k1]
	v2, ok2 := r.m[k2]
	if !ok1 || !ok2 {
		return false
	}
	r.m[k1], r.m[k2] = v2, v1
	return true
}

func (r *model) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// oracleKeys builds a key space with both uniform and zipf pickers over
// it.
func oracleKeys(prefix string, n int, seed int64) ([]string, func(*rng.State) string, func(*rng.State) string) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	zsrc := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(zsrc, 1.1, 1, uint64(n-1))
	uniform := func(r *rng.State) string { return keys[r.Intn(uint64(n))] }
	zipfPick := func(r *rng.State) string { return keys[zipf.Uint64()] }
	return keys, uniform, zipfPick
}

// oracleStep drives one random operation against both map and model and
// fails the test on any observable disagreement. pick alternates
// between distributions via the rng itself.
func oracleStep(t *testing.T, th *Thread, ref *model, r *rng.State,
	uniform, zipf func(*rng.State) string, step int) {
	t.Helper()
	pick := uniform
	if r.Intn(2) == 0 {
		pick = zipf
	}
	k := pick(r)
	switch r.Intn(100) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
		if got, want := th.Delete(k), ref.del(k); got != want {
			t.Fatalf("step %d: Delete(%q) = %v, model says %v", step, k, got, want)
		}
	case 10, 11, 12, 13, 14:
		// CAS from the model's current value (hit) or a bogus one (miss).
		old, ok := ref.get(k)
		if !ok || r.Intn(4) == 0 {
			old = word.FromUint(r.Next() >> 3)
		}
		new := word.FromUint(r.Next() >> 3)
		if got, want := th.CompareAndSwap(k, old, new), ref.cas(k, old, new); got != want {
			t.Fatalf("step %d: CAS(%q) = %v, model says %v", step, k, got, want)
		}
	case 15, 16, 17:
		k2 := pick(r)
		if got, want := th.Swap2(k, k2), ref.swap2(k, k2); got != want {
			t.Fatalf("step %d: Swap2(%q,%q) = %v, model says %v", step, k, k2, got, want)
		}
	case 18, 19, 20, 21, 22:
		v := word.FromUint(r.Next() >> 3)
		if got, want := th.Update(k, v), ref.update(k, v); got != want {
			t.Fatalf("step %d: Update(%q) = %v, model says %v", step, k, got, want)
		}
	case 23, 24, 25:
		keys := [2]string{k, pick(r)}
		var vals [2]Value
		var found [2]bool
		th.GetBatch(keys[:], vals[:], found[:])
		for i := range keys {
			wv, wok := ref.get(keys[i])
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("step %d: GetBatch[%d](%q) = (%v,%v), model says (%v,%v)",
					step, i, keys[i], vals[i], found[i], wv, wok)
			}
		}
	case 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
		36, 37, 38, 39, 40, 41, 42, 43, 44, 45:
		v := word.FromUint(r.Next() >> 3)
		if got, want := th.Put(k, v), ref.put(k, v); got != want {
			t.Fatalf("step %d: Put(%q) = %v, model says %v", step, k, got, want)
		}
	default:
		gv, gok := th.Get(k)
		wv, wok := ref.get(k)
		if gok != wok || (wok && gv != wv) {
			t.Fatalf("step %d: Get(%q) = (%v,%v), model says (%v,%v)", step, k, gv, gok, wv, wok)
		}
	}
}

// finalCheckKeys compares the final state over one key space.
func finalCheckKeys(t *testing.T, th *Thread, ref *model, keys []string) {
	t.Helper()
	for _, k := range keys {
		gv, gok := th.Get(k)
		wv, wok := ref.get(k)
		if gok != wok || (wok && gv != wv) {
			t.Errorf("final: Get(%q) = (%v,%v), model says (%v,%v)", k, gv, gok, wv, wok)
		}
	}
}

// finalCheckGlobal additionally compares Len and a full Range against
// the model (callers whose model covers the whole map).
func finalCheckGlobal(t *testing.T, m *Map, th *Thread, ref *model) {
	t.Helper()
	if m.Len() != ref.len() {
		t.Errorf("final: Len() = %d, model says %d", m.Len(), ref.len())
	}
	seen := map[string]Value{}
	th.Range(func(k string, v Value) bool {
		seen[k] = v
		return true
	})
	if len(seen) != ref.len() {
		t.Errorf("final: Range yielded %d keys, model says %d", len(seen), ref.len())
	}
	for k, v := range seen {
		if wv, ok := ref.get(k); !ok || wv != v {
			t.Errorf("final: Range yielded %q=%v, model says (%v,%v)", k, v, wv, ok)
		}
	}
}

const oracleSeed = 0x5EED

// oracleMaxThreads is the engine capacity of every oracle suite; 0 selects
// the default. TestOraclesAtCapacity1024 raises it: with validation cost
// set by registered threads, the suites must not notice.
var oracleMaxThreads int

func TestOraclesAtCapacity1024(t *testing.T) {
	oracleMaxThreads = 1024
	defer func() { oracleMaxThreads = 0 }()
	t.Run("Sequential", TestOracleSequential)
	t.Run("Concurrent", TestOracleConcurrent)
	t.Run("ConcurrentCC", TestOracleConcurrentCC)
	t.Run("SnapshotMGET", TestOracleSnapshotMGET)
	t.Run("Recovery", TestOracleRecovery)
	t.Run("Scan", TestScanOracle)
}

func TestOracleSequential(t *testing.T) {
	steps := 60000
	if testing.Short() {
		steps = 6000
	}
	// A small shard/bucket count plus a tight key space forces chains,
	// resizes and marked-link restarts.
	m := New(valEngine(t), WithShards(2), WithInitialBuckets(4))
	th := m.NewThread()
	ref := newModel()
	keys, uniform, zipf := oracleKeys("seq-", 512, oracleSeed)
	r := rng.New(oracleSeed)
	for i := 0; i < steps; i++ {
		oracleStep(t, th, ref, r, uniform, zipf, i)
	}
	finalCheckKeys(t, th, ref, keys)
	finalCheckGlobal(t, m, th, ref)
}

func TestOracleConcurrent(t *testing.T) {
	runOracleConcurrent(t, core.Config{Layout: core.LayoutVal})
}

// TestOracleConcurrentCC re-runs the concurrent oracle under each
// non-default concurrency-control policy, plus the snapshot-recording
// configuration that reroutes the cross-space GetBatch traffic through
// multi-version reads. -short keeps one representative per policy.
func TestOracleConcurrentCC(t *testing.T) {
	cfgs := map[string]core.Config{
		"tvar-lazy": {Layout: core.LayoutTVar, CC: core.CCLazy},
		"tvar-snap": {Layout: core.LayoutTVar, Snapshots: true},
	}
	if !testing.Short() {
		cfgs["orec-lazy"] = core.Config{Layout: core.LayoutOrec, CC: core.CCLazy}
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) { runOracleConcurrent(t, cfg) })
	}
}

func runOracleConcurrent(t *testing.T, cfg core.Config) {
	const goroutines = 6
	steps := 20000
	if testing.Short() {
		steps = 2000
	}
	cfg.MaxThreads = oracleMaxThreads
	e, err := core.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := New(e, WithShards(4), WithInitialBuckets(4))

	type worker struct {
		th      *Thread
		ref     *model
		keys    []string
		uniform func(*rng.State) string
		zipf    func(*rng.State) string
		all     []string // other goroutines' keys, for cross-space reads
	}
	var everything []string
	workers := make([]*worker, goroutines)
	for g := range workers {
		keys, uniform, zipf := oracleKeys(fmt.Sprintf("g%d-", g), 128, oracleSeed+int64(g))
		workers[g] = &worker{th: m.NewThread(), ref: newModel(),
			keys: keys, uniform: uniform, zipf: zipf}
		everything = append(everything, keys...)
	}
	for _, w := range workers {
		w.all = everything
	}

	var wg sync.WaitGroup
	for g, w := range workers {
		wg.Add(1)
		go func(g int, w *worker) {
			defer wg.Done()
			r := rng.New(oracleSeed ^ (uint64(g)+1)*0x9e3779b97f4a7c15)
			for i := 0; i < steps; i++ {
				if r.Intn(10) == 0 {
					// Cross-space atomic read: results are concurrent
					// observations, only the snapshot contract is
					// checkable — no torn values, found ⟺ some committed
					// insert happened-before. Width 4 exercises the wide
					// routes (snapshot reads on history-recording
					// engines, one full RO transaction otherwise).
					var keys [4]string
					for j := range keys {
						keys[j] = w.all[r.Intn(uint64(len(w.all)))]
					}
					var vals [4]Value
					var found [4]bool
					w.th.GetBatch(keys[:], vals[:], found[:])
					continue
				}
				oracleStep(t, w.th, w.ref, r, w.uniform, w.zipf, i)
			}
		}(g, w)
	}
	wg.Wait()

	// Per-goroutine logs agreed step by step (oracleStep fails fast);
	// the final state must be the union of the per-goroutine models.
	total := 0
	for _, w := range workers {
		finalCheckKeys(t, w.th, w.ref, w.keys)
		total += w.ref.len()
	}
	if m.Len() != total {
		t.Errorf("final Len %d, union of models %d", m.Len(), total)
	}
	union := map[string]Value{}
	workers[0].th.Range(func(k string, v Value) bool {
		union[k] = v
		return true
	})
	if len(union) != total {
		t.Errorf("final Range yielded %d keys, union of models %d", len(union), total)
	}
	for _, w := range workers {
		for _, k := range w.keys {
			wv, wok := w.ref.get(k)
			gv, gok := union[k]
			if wok != gok || (wok && gv != wv) {
				t.Errorf("final union: key %q = (%v,%v), model says (%v,%v)", k, gv, gok, wv, wok)
			}
		}
	}
}

// TestOracleSnapshotMGET is the snapshot-consistency oracle: writers
// hammer Swap2 on fixed key pairs (each pair's values always {2i+1,
// 2i+2}) plus churn traffic for resize pressure, while readers issue
// wide 8-key batches over all pairs. A batch that observed any pair
// torn — one half of a swap — fails; the invariant must hold on every
// route the batch can take (snapshot reads, and the full-transaction
// fallback under resizes). Runs on each history-recording policy.
func TestOracleSnapshotMGET(t *testing.T) {
	cfgs := map[string]core.Config{
		"tvar-snap": {Layout: core.LayoutTVar, Snapshots: true},
	}
	if !testing.Short() {
		cfgs["orec-snap"] = core.Config{Layout: core.LayoutOrec, Snapshots: true}
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			const pairs = 4
			const readers = 3
			cfg.MaxThreads = oracleMaxThreads
			e, err := core.NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := New(e, WithShards(4), WithInitialBuckets(4))
			init := m.NewThread()
			keys := make([]string, 2*pairs)
			for i := range keys {
				keys[i] = fmt.Sprintf("pair-%02d", i)
				init.Put(keys[i], word.FromUint(uint64(i+1)))
			}

			done := make(chan struct{})
			var torn int64
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := m.NewThread()
					vals := make([]Value, len(keys))
					found := make([]bool, len(keys))
					for {
						select {
						case <-done:
							return
						default:
						}
						th.GetBatch(keys, vals, found)
						for p := 0; p < pairs; p++ {
							a, b := vals[2*p].Uint(), vals[2*p+1].Uint()
							if !found[2*p] || !found[2*p+1] {
								t.Errorf("reader %d: pair %d key vanished", g, p)
								return
							}
							if a+b != uint64(4*p+3) { // {2p+1, 2p+2} in some order
								atomic.AddInt64(&torn, 1)
								t.Errorf("reader %d: pair %d torn: %d,%d", g, p, a, b)
								return
							}
						}
					}
				}(g)
			}

			// Swap writers plus churn traffic that forces shard growth
			// (the snapshot path's resize fallback).
			var wwg sync.WaitGroup
			iters := 8000
			if testing.Short() {
				iters = 1500
			}
			for g := 0; g < 2; g++ {
				wwg.Add(1)
				go func(g int) {
					defer wwg.Done()
					th := m.NewThread()
					r := rng.New(uint64(g + 1))
					for i := 0; i < iters; i++ {
						p := int(r.Intn(pairs))
						if !th.Swap2(keys[2*p], keys[2*p+1]) {
							t.Error("Swap2 of present pair failed")
							return
						}
						if i%8 == 0 {
							th.Put(fmt.Sprintf("churn-%d-%d", g, i), word.FromUint(uint64(i)))
						}
					}
				}(g)
			}
			wwg.Wait()
			close(done)
			wg.Wait()
			if atomic.LoadInt64(&torn) != 0 {
				t.Fatalf("%d torn pair observations", torn)
			}
			st := m.OpStats()
			if st.SnapshotBatches == 0 {
				t.Fatal("wide batches never took the snapshot route")
			}
		})
	}
}

// TestOracleRecovery runs the sequential oracle against a persistent
// map with periodic BGSAVEs, then closes and reopens it: the recovered
// contents must equal the model exactly (every acknowledged op was
// flushed by Close).
func TestOracleRecovery(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 2000
	}
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir,
		WithPersistence(dir, wal.EveryN(32)), WithShards(2), WithInitialBuckets(4))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	ref := newModel()
	_, uniform, zipf := oracleKeys("rec-", 256, oracleSeed)
	r := rng.New(oracleSeed * 3)
	for i := 0; i < steps; i++ {
		oracleStep(t, th, ref, r, uniform, zipf, i)
		if i%(steps/4) == steps/8 {
			if err := m.Save(); err != nil {
				t.Fatalf("step %d: Save: %v", i, err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(valEngine(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := contents(t, m2)
	want := map[string]uint64{}
	ref.mu.Lock()
	for k, v := range ref.m {
		want[k] = v.Uint()
	}
	ref.mu.Unlock()
	requireEqual(t, got, want)
}
