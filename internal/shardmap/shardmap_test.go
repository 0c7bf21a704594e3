package shardmap

import (
	"fmt"
	"runtime"
	"testing"

	"spectm/internal/core"
	"spectm/internal/word"
)

// engines returns one engine per layout/clock/policy combination the
// map must support: every one but LayoutTVar's (see ErrTVarLayout).
func engines() map[string]*core.Engine {
	return map[string]*core.Engine{
		"val":           core.New(core.Config{Layout: core.LayoutVal}),
		"val-nocounter": core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter}),
		"orec-g":        core.New(core.Config{Layout: core.LayoutOrec}),
		"orec-l":        core.New(core.Config{Layout: core.LayoutOrec, CC: core.CCLocal}),
	}
}

// TestDefaultShardCount pins the WithShards doc contract: with no
// option the shard count is the smallest power of two >= GOMAXPROCS,
// at least 8.
func TestDefaultShardCount(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if want < 8 {
		want = 8
	}
	want = ceilPow2(want)
	m := New(core.New(core.Config{Layout: core.LayoutVal}))
	if got := m.Shards(); got != want {
		t.Fatalf("default shard count = %d, want %d (ceilPow2(max(GOMAXPROCS, 8)))", got, want)
	}
	if got := New(core.New(core.Config{Layout: core.LayoutVal}), WithShards(3)).Shards(); got != 4 {
		t.Fatalf("WithShards(3) = %d shards, want 4", got)
	}
}

func TestBasicOps(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			m := New(e, WithShards(4), WithInitialBuckets(4))
			th := m.NewThread()

			if _, ok := th.Get("missing"); ok {
				t.Fatal("Get on empty map reported a hit")
			}
			if !th.Put("a", word.FromUint(1)) {
				t.Fatal("first Put(a) did not insert")
			}
			if th.Put("a", word.FromUint(2)) {
				t.Fatal("second Put(a) inserted instead of updating")
			}
			if v, ok := th.Get("a"); !ok || v.Uint() != 2 {
				t.Fatalf("Get(a) = %v,%v want 2,true", v.Uint(), ok)
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d want 1", m.Len())
			}
			if th.Delete("missing") {
				t.Fatal("Delete(missing) reported success")
			}
			if !th.Delete("a") {
				t.Fatal("Delete(a) failed")
			}
			if _, ok := th.Get("a"); ok {
				t.Fatal("Get(a) after delete reported a hit")
			}
			if m.Len() != 0 {
				t.Fatalf("Len after delete = %d want 0", m.Len())
			}
			// Reinsert after delete works (arena slot recycling).
			if !th.Put("a", word.FromUint(3)) {
				t.Fatal("Put(a) after delete did not insert")
			}
			if v, ok := th.Get("a"); !ok || v.Uint() != 3 {
				t.Fatalf("Get(a) after reinsert = %v,%v", v.Uint(), ok)
			}
		})
	}
}

func TestManyKeysAndGrowth(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(2), WithInitialBuckets(2))
	th := m.NewThread()
	const n = 3000
	for i := 0; i < n; i++ {
		if !th.Put(key(i), word.FromUint(uint64(i))) {
			t.Fatalf("Put(%d) did not insert", i)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d want %d", m.Len(), n)
	}
	// Growth must have happened well past the initial 2 buckets/shard.
	for i := range m.shards {
		st := m.shards[i].state.Load()
		if st.old != nil {
			t.Fatalf("shard %d still mid-resize after quiescence", i)
		}
		if len(st.cur.buckets) <= 2 {
			t.Fatalf("shard %d never grew (%d buckets)", i, len(st.cur.buckets))
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := th.Get(key(i)); !ok || v.Uint() != uint64(i) {
			t.Fatalf("Get(%d) = %v,%v after growth", i, v.Uint(), ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if !th.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if m.Len() != n/2 {
		t.Fatalf("Len = %d want %d", m.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := th.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v want %v", i, ok, want)
		}
	}
}

// TestChainLength pins how deep a lookup walks. It fills a map at the
// default bucket count with 64 Ki keys and then, quiescent, walks every
// shard's table: each shard's load (keys per bucket) is at most maxLoad
// = 1, and a hit visits at most 1.5 nodes on average, the key's own
// node included (a chain of L nodes costs its hits L(L+1)/2 visits).
func TestChainLength(t *testing.T) {
	m := New(core.New(core.Config{Layout: core.LayoutVal}))
	const n = 1 << 16
	fillMap(m, n)
	x := m.NewThread()
	var total, visits int
	for i := range m.shards {
		sh := &m.shards[i]
		st := sh.state.Load()
		if st.old != nil {
			t.Fatalf("shard %d still mid-resize after quiescence", i)
		}
		tb, size := st.cur, 0
		for b := range tb.buckets {
			pos := 0
			for link := x.t.SingleRead(m.bucketVar(tb, uint64(b))); !link.IsNull(); pos++ {
				h := dec(link)
				visits += pos + 1
				link = x.t.SingleRead(m.nextVar(sh, h, sh.a.Get(h)))
			}
			size += pos
		}
		if size > len(tb.buckets)*maxLoad {
			t.Errorf("shard %d: %d keys in %d buckets, load %.2f > %d",
				i, size, len(tb.buckets), float64(size)/float64(len(tb.buckets)), maxLoad)
		}
		total += size
	}
	if total != n {
		t.Fatalf("walked %d keys, want %d", total, n)
	}
	if mean := float64(visits) / float64(total); mean > 1.5 {
		t.Errorf("a hit visits %.2f nodes on average, want at most 1.5", mean)
	} else {
		t.Logf("a hit visits %.2f nodes on average", mean)
	}
}

func TestCompareAndSwap(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e)
	th := m.NewThread()
	if th.CompareAndSwap("k", word.FromUint(0), word.FromUint(1)) {
		t.Fatal("CAS on absent key succeeded")
	}
	th.Put("k", word.FromUint(10))
	if th.CompareAndSwap("k", word.FromUint(11), word.FromUint(12)) {
		t.Fatal("CAS with wrong expectation succeeded")
	}
	if !th.CompareAndSwap("k", word.FromUint(10), word.FromUint(20)) {
		t.Fatal("CAS with right expectation failed")
	}
	if v, _ := th.Get("k"); v.Uint() != 20 {
		t.Fatalf("value after CAS = %d want 20", v.Uint())
	}
}

func TestSwap2(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(8))
	th := m.NewThread()
	th.Put("x", word.FromUint(1))
	th.Put("y", word.FromUint(2))
	if !th.Swap2("x", "y") {
		t.Fatal("Swap2 of two present keys failed")
	}
	vx, _ := th.Get("x")
	vy, _ := th.Get("y")
	if vx.Uint() != 2 || vy.Uint() != 1 {
		t.Fatalf("after swap x=%d y=%d want 2,1", vx.Uint(), vy.Uint())
	}
	if th.Swap2("x", "absent") {
		t.Fatal("Swap2 with an absent key succeeded")
	}
	if !th.Swap2("x", "x") {
		t.Fatal("self-swap of a present key failed")
	}
	if th.Swap2("absent", "absent") {
		t.Fatal("self-swap of an absent key succeeded")
	}
}

func TestGetBatch(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(4), WithInitialBuckets(4))
	th := m.NewThread()
	for i := 0; i < 100; i++ {
		th.Put(key(i), word.FromUint(uint64(100+i)))
	}
	vals := make([]Value, 8)
	found := make([]bool, 8)

	th.GetBatch(nil, vals, found)

	th.GetBatch([]string{key(7)}, vals, found)
	if !found[0] || vals[0].Uint() != 107 {
		t.Fatalf("1-key batch = %v,%v", vals[0].Uint(), found[0])
	}

	// Two present keys: short RO4 path.
	th.GetBatch([]string{key(1), key(2)}, vals, found)
	if !found[0] || !found[1] || vals[0].Uint() != 101 || vals[1].Uint() != 102 {
		t.Fatalf("2-key batch = %v/%v %v/%v", vals[0].Uint(), found[0], vals[1].Uint(), found[1])
	}

	// Duplicate keys and absent keys: full-transaction path.
	th.GetBatch([]string{key(3), key(3)}, vals, found)
	if !found[0] || !found[1] || vals[0] != vals[1] {
		t.Fatal("duplicate-key batch inconsistent")
	}
	th.GetBatch([]string{key(4), "nope"}, vals, found)
	if !found[0] || found[1] {
		t.Fatalf("present/absent batch found = %v,%v", found[0], found[1])
	}

	// Wide batch across shards.
	keys := []string{key(10), key(20), "gone", key(30), key(40), "also-gone"}
	th.GetBatch(keys, vals, found)
	wantVal := []uint64{110, 120, 0, 130, 140, 0}
	wantOK := []bool{true, true, false, true, true, false}
	for i := range keys {
		if found[i] != wantOK[i] || (found[i] && vals[i].Uint() != wantVal[i]) {
			t.Fatalf("wide batch key %d: %v,%v", i, vals[i].Uint(), found[i])
		}
	}
}

// TestZeroAllocHotPaths is the CI regression gate for the paper's core
// claim applied to the map: Get and single-key update Put run entirely on
// the short-transaction paths and perform no dynamic allocation — under
// every concurrency-control policy.
func TestZeroAllocHotPaths(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			m := New(e, WithShards(4), WithInitialBuckets(64))
			th := m.NewThread()
			for i := 0; i < 128; i++ {
				th.Put(key(i), word.FromUint(uint64(i)))
			}
			k17, k18 := key(17), key(18)
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := th.Get(k17); !ok {
					t.Fatal("lost key")
				}
			}); n != 0 {
				t.Fatalf("Map.Get allocates %.1f allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(200, func() {
				if th.Put(k17, word.FromUint(99)) {
					t.Fatal("update turned into insert")
				}
			}); n != 0 {
				t.Fatalf("Map.Put (update) allocates %.1f allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(200, func() {
				if !th.CompareAndSwap(k18, word.FromUint(18), word.FromUint(18)) {
					t.Fatal("CAS missed")
				}
			}); n != 0 {
				t.Fatalf("Map.CompareAndSwap allocates %.1f allocs/op, want 0", n)
			}
			// A conflicted attempt (count + backoff) must not allocate either.
			if n := testing.AllocsPerRun(200, func() { th.conflict(3) }); n != 0 {
				t.Fatalf("conflict path allocates %.1f allocs/op, want 0", n)
			}
		})
	}
}

// TestZeroAllocWideBatch pins the wide-batch route the server's MGET
// takes: an 8-key GetBatch on the val layout runs as one full read-only
// transaction and must stay allocation-free (after the one-time read-set
// growth on first use).
func TestZeroAllocWideBatch(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutVal})
	m := New(e, WithShards(4), WithInitialBuckets(64))
	th := m.NewThread()
	for i := 0; i < 128; i++ {
		th.Put(key(i), word.FromUint(uint64(i)))
	}
	keys := make([]string, 8)
	vals := make([]Value, 8)
	found := make([]bool, 8)
	for i := range keys {
		keys[i] = key(i * 16)
	}
	th.GetBatch(keys, vals, found) // warm the transaction's read set
	if n := testing.AllocsPerRun(200, func() {
		th.GetBatch(keys, vals, found)
	}); n != 0 {
		t.Fatalf("wide GetBatch allocates %.1f allocs/op, want 0", n)
	}
	for i := range keys {
		if !found[i] || vals[i].Uint() != uint64(i*16) {
			t.Fatalf("key %d: (%v,%v)", i, vals[i].Uint(), found[i])
		}
	}
}

func key(i int) string { return fmt.Sprintf("key-%06d", i) }
