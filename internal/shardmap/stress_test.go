package shardmap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// stressDuration keeps wall-clock time sane under -race.
func stressDuration() time.Duration {
	if testing.Short() {
		return 30 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// TestStressLinearizable runs a mixed get/put/delete workload where every
// value encodes its key's index, so any cross-key tearing, lost update or
// stale-node read surfaces as a decode mismatch.
func TestStressLinearizable(t *testing.T) {
	for _, layout := range []string{"val", "tvar-g", "orec-l"} {
		t.Run(layout, func(t *testing.T) {
			e := engines()[layout]
			m := New(e, WithShards(4), WithInitialBuckets(8))
			const nkeys = 512
			keys := make([]string, nkeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("stress-%04d", i)
			}
			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := m.NewThread()
					r := rng.New(uint64(id)*7919 + 1)
					for !stop.Load() {
						i := int(r.Intn(nkeys))
						switch r.Intn(10) {
						case 0:
							th.Delete(keys[i])
						case 1, 2:
							// Value = key index * 2^20 + worker-local tick.
							th.Put(keys[i], word.FromUint(uint64(i)<<20|uint64(id)))
						default:
							if v, ok := th.Get(keys[i]); ok {
								if got := v.Uint() >> 20; got != uint64(i) {
									t.Errorf("Get(%s) decoded key %d", keys[i], got)
									stop.Store(true)
								}
							}
						}
					}
				}(w)
			}
			time.Sleep(stressDuration())
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestResizeUnderLoad hammers inserts/deletes/reads through many chained
// resizes (starting from 1 bucket per shard) and verifies no key is lost,
// duplicated or left stale.
func TestResizeUnderLoad(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(2), WithInitialBuckets(1))
	const nkeys = 4096
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("grow-%05d", i)
	}
	workers := 4
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Readers run throughout, checking the value↔key invariant.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.NewThread()
			r := rng.New(uint64(id) + 100)
			for !stop.Load() {
				i := int(r.Intn(nkeys))
				if v, ok := th.Get(keys[i]); ok && v.Uint() != uint64(i) {
					t.Errorf("reader: Get(%s) = %d", keys[i], v.Uint())
					stop.Store(true)
				}
			}
		}(w)
	}

	// Writers partition the key space and insert every key, churning a
	// random slice of their partition with delete/reinsert.
	var iwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		iwg.Add(1)
		go func(id int) {
			defer iwg.Done()
			th := m.NewThread()
			r := rng.New(uint64(id) + 999)
			for i := id; i < nkeys; i += workers {
				if !th.Put(keys[i], word.FromUint(uint64(i))) {
					t.Errorf("writer: Put(%s) found a duplicate", keys[i])
				}
				if r.Intn(8) == 0 {
					j := (i/workers/2)*workers + id // an earlier key of ours
					if th.Delete(keys[j]) {
						th.Put(keys[j], word.FromUint(uint64(j)))
					}
				}
			}
		}(w)
	}
	iwg.Wait()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	if m.Len() != nkeys {
		t.Fatalf("Len = %d want %d", m.Len(), nkeys)
	}
	th := m.NewThread()
	for i, k := range keys {
		v, ok := th.Get(k)
		if !ok || v.Uint() != uint64(i) {
			t.Fatalf("after load: Get(%s) = %v,%v", k, v.Uint(), ok)
		}
	}
	for i := range m.shards {
		st := m.shards[i].state.Load()
		if st.old != nil {
			t.Fatalf("shard %d left mid-resize", i)
		}
		if len(st.cur.buckets) < 64 {
			t.Fatalf("shard %d only reached %d buckets", i, len(st.cur.buckets))
		}
	}
}

// TestHotKeyHammer CAS-increments two keys from eight goroutines: every
// lost race goes through the conflict path (count + randomized linear
// backoff), and the per-key final sums must still be exact.
func TestHotKeyHammer(t *testing.T) {
	m := New(core.New(core.Config{Layout: core.LayoutOrec}), WithShards(2), WithInitialBuckets(4))
	init := m.NewThread()
	const hotKeys, workers = 2, 8
	for k := 0; k < hotKeys; k++ {
		init.Put(key(k), word.FromUint(0))
	}
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.NewThread()
			k := key(w % hotKeys)
			for i := 0; i < iters; i++ {
				for {
					v, ok := th.Get(k)
					if !ok {
						t.Error("hot key vanished")
						return
					}
					if th.CompareAndSwap(k, v, word.FromUint(v.Uint()+1)) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < hotKeys; k++ {
		v, ok := init.Get(key(k))
		if want := uint64(workers / hotKeys * iters); !ok || v.Uint() != want {
			t.Fatalf("key %d = %d (present %v) after the storm, want %d", k, v.Uint(), ok, want)
		}
	}
}

// TestSwap2Atomicity spins swappers exchanging two values across shards
// while readers snapshot both keys with GetBatch; a reader must never see
// a half-applied swap (both keys equal) or a missing key.
func TestSwap2Atomicity(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(8), WithInitialBuckets(4))
	init := m.NewThread()
	const pairs = 16
	ka := make([]string, pairs)
	kb := make([]string, pairs)
	for p := 0; p < pairs; p++ {
		ka[p] = fmt.Sprintf("swap-a-%02d", p)
		kb[p] = fmt.Sprintf("swap-b-%02d", p)
		init.Put(ka[p], word.FromUint(uint64(p)<<8|1))
		init.Put(kb[p], word.FromUint(uint64(p)<<8|2))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.NewThread()
			r := rng.New(uint64(id) + 1)
			for !stop.Load() {
				p := int(r.Intn(pairs))
				if !th.Swap2(ka[p], kb[p]) {
					t.Error("Swap2 lost a key")
					stop.Store(true)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.NewThread()
			r := rng.New(uint64(id) + 77)
			vals := make([]Value, 2)
			found := make([]bool, 2)
			for !stop.Load() {
				p := int(r.Intn(pairs))
				th.GetBatch([]string{ka[p], kb[p]}, vals, found)
				if !found[0] || !found[1] {
					t.Errorf("pair %d: missing key in snapshot", p)
					stop.Store(true)
					continue
				}
				u0, u1 := vals[0].Uint(), vals[1].Uint()
				want := uint64(p) << 8
				if u0>>8 != uint64(p) || u1>>8 != uint64(p) ||
					u0&0xff == u1&0xff ||
					(u0 != want|1 && u0 != want|2) || (u1 != want|1 && u1 != want|2) {
					t.Errorf("pair %d: torn snapshot %x,%x", p, u0, u1)
					stop.Store(true)
				}
			}
		}(w)
	}
	time.Sleep(stressDuration())
	stop.Store(true)
	wg.Wait()
}

// TestMixedDuringResizeAllOps drives every operation concurrently on a
// deliberately tiny map so resizes overlap gets, batch reads, CAS and
// swaps.
func TestMixedDuringResizeAllOps(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(2), WithInitialBuckets(1))
	const nkeys = 1024
	keys := make([]string, nkeys)
	init := m.NewThread()
	for i := range keys {
		keys[i] = fmt.Sprintf("mix-%04d", i)
		if i%2 == 0 {
			init.Put(keys[i], word.FromUint(uint64(i)<<16|1))
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.NewThread()
			r := rng.New(uint64(id)*13 + 5)
			vals := make([]Value, 3)
			found := make([]bool, 3)
			check := func(i int, v Value, ok bool) {
				if ok && v.Uint()>>16 != uint64(i) {
					t.Errorf("key %d decoded as %d", i, v.Uint()>>16)
					stop.Store(true)
				}
			}
			for !stop.Load() {
				i := int(r.Intn(nkeys))
				switch r.Intn(12) {
				case 0:
					th.Delete(keys[i])
				case 1, 2, 3:
					th.Put(keys[i], word.FromUint(uint64(i)<<16|uint64(id)))
				case 4:
					old, ok := th.Get(keys[i])
					if ok {
						th.CompareAndSwap(keys[i], old, word.FromUint(uint64(i)<<16|0xff))
					}
				case 5, 6:
					j, k := int(r.Intn(nkeys)), int(r.Intn(nkeys))
					th.GetBatch([]string{keys[i], keys[j], keys[k]}, vals, found)
				default:
					v, ok := th.Get(keys[i])
					check(i, v, ok)
				}
			}
		}(w)
	}
	time.Sleep(stressDuration())
	stop.Store(true)
	wg.Wait()
}
