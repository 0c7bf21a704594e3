package shardmap

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"spectm/internal/arena"
	"spectm/internal/word"
)

// hintOf returns the hint in key's index entry. The index must
// hold key.
func hintOf(t *testing.T, x *Thread, key string) word.Value {
	t.Helper()
	ol := x.m.ordered
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	eh, found := ol.search(x, key)
	if !found {
		t.Fatalf("no index entry for %q", key)
	}
	return x.t.SingleRead(ol.hintVar(eh, ol.a.Get(eh)))
}

// nodeOf returns the handle of key's hash node. The map must hold key.
func nodeOf(t *testing.T, x *Thread, key string) arena.Handle {
	t.Helper()
	h := x.m.hash(key)
	sh := x.m.shardOf(h)
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for {
		_, _, cur, found, ok := x.search(sh, x.route(sh, h), h, key)
		if !ok {
			continue
		}
		if !found {
			t.Fatalf("%q is not in the map", key)
		}
		return cur
	}
}

// hold takes one extra reference on key's index entry, as an insert of
// the key in flight would, so the entry outlives a delete of the key and
// scans keep visiting it.
func hold(x *Thread, key string) {
	x.t.Epoch.Enter()
	x.m.ordered.add(x, key, x.m.hash(key))
	x.t.Epoch.Exit()
}

func unhold(x *Thread, key string) {
	x.t.Epoch.Enter()
	olistDrop(x.m.ordered, x, key)
	x.t.Epoch.Exit()
}

// scanFallbacks runs a full scan, checks it against want, and returns
// how many candidates it read through a hash lookup.
func scanFallbacks(t *testing.T, x *Thread, want map[string]uint64) uint64 {
	t.Helper()
	before := x.OpStats().ScanFallbacks
	got := collect(t, x, "", "", 0)
	if len(got) != len(want) {
		t.Fatalf("scan: %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("scan[%q] = %d (present %v), want %d", k, gv, ok, v)
		}
	}
	return x.OpStats().ScanFallbacks - before
}

// requireExactHints checks the hint invariant on every key of want:
// the key's hint names the node the hash map holds it in. It then
// requires a full scan to read exactly want with no fallback.
func requireExactHints(t *testing.T, x *Thread, want map[string]uint64, when string) {
	t.Helper()
	for k := range want {
		if hint, h := hintOf(t, x, k), nodeOf(t, x, k); hint != enc(h) {
			t.Fatalf("%s: %q has hint %#x (node %#x), its node is %#x", when, k, uint64(hint), uint64(dec(hint)), uint64(h))
		}
	}
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("%s: scan made %d fallbacks, want 0", when, fb)
	}
}

// TestNodeLayout pins the hash node at 64 B, one cache line of its
// page-aligned arena chunk, with the key's prefix words that a chain
// compare reads and the entry handle that Scan's start and migration
// read.
func TestNodeLayout(t *testing.T) {
	var n node
	if got := unsafe.Sizeof(n); got != 64 {
		t.Errorf("node is %d B, want 64", got)
	}
	if h, p := unsafe.Offsetof(n.hash), unsafe.Offsetof(n.p0); p-h != 24 {
		t.Errorf("hash at %d, prefix words at %d: want only the key header between them", h, p)
	}
	a := arena.New[node]()
	for i := 0; i < 3; i++ {
		if h, n := a.Alloc(); uintptr(unsafe.Pointer(n))%64 != 0 {
			t.Errorf("node %#x at %p straddles a cache line", uint64(h), n)
		}
	}
}

// growAll doubles every shard's table, migrating every node, and hands
// the migrated nodes' slots back to the arenas.
func growAll(m *Map, x *Thread) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		x.grow(sh, sh.state.Load().cur)
		sh.mu.Unlock()
	}
	x.t.Epoch.Flush()
}

// TestScanHintResize: every grow migrates every node, and the migration
// commit moves each key's hint to the copy. After each grow, with the
// migrated nodes' slots recycled under new keys, every hint names its
// key's current node and a scan reads every key through it.
func TestScanHintResize(t *testing.T) {
	m, x := orderedMap(t)
	want := map[string]uint64{}
	put := func(k string, v uint64) {
		x.Put(k, word.FromUint(v))
		want[k] = v
	}
	for i := 0; i < 256; i++ {
		put(fmt.Sprintf("k%03d", i), uint64(i))
	}
	requireExactHints(t, x, want, "after the inserts")
	for round := 0; round < 3; round++ {
		growAll(m, x)
		for i := 0; i < 64; i++ { // reuses migrated slots; stays below the next grow
			put(fmt.Sprintf("r%d-%02d", round, i), uint64(1000*(round+1)+i))
		}
		requireExactHints(t, x, want, fmt.Sprintf("after grow %d", round+1))
	}
}

// TestScanHintDelete: a delete empties the hint of an entry that outlives
// it, so once the deleted node's slot holds another key, a scan omits
// the deleted key and never reads that slot for it. Reinserting the key
// sets the hint again.
func TestScanHintDelete(t *testing.T) {
	m, x := orderedMap(t, WithInitialBuckets(1024)) // no grow but growAll's
	want := map[string]uint64{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		x.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	requireExactHints(t, x, want, "after the inserts")
	growAll(m, x)
	requireExactHints(t, x, want, "after a grow")

	const victim = "k10"
	vh := nodeOf(t, x, victim)
	hold(x, victim)
	x.Delete(victim)
	delete(want, victim)
	if hint := hintOf(t, x, victim); hint != word.Null {
		t.Fatalf("hint %#x survived the delete", uint64(hint))
	}

	// Recycle the deleted node's slot under another key of its shard.
	// A stale hint would make the scan report victim with that key's
	// value.
	x.t.Epoch.Flush()
	sh := m.shardOf(m.hash(victim))
	recycled := ""
	for i := 0; i < 10000 && recycled == ""; i++ {
		k := fmt.Sprintf("r%04d", i)
		if m.shardOf(m.hash(k)) != sh {
			continue
		}
		x.Put(k, word.FromUint(uint64(1000+i)))
		want[k] = uint64(1000 + i)
		if h := nodeOf(t, x, k); uint64(h)&(1<<32-1) == uint64(vh)&(1<<32-1) {
			recycled = k
		}
	}
	if recycled == "" || sh.a.Validate(vh) {
		t.Fatalf("node slot of %q was not recycled", victim)
	}
	scanFallbacks(t, x, want)

	x.Put(victim, word.FromUint(77))
	want[victim] = 77
	unhold(x, victim)
	requireExactHints(t, x, want, "after the reinsert")
}

// TestScanHintRefreshLosesToDelete: a delete that commits between a
// scan's read of a hint and its reads of the hinted node makes the
// candidate's ShortRO3 fail validation; the retry reads the emptied hint
// and omits the key.
func TestScanHintRefreshLosesToDelete(t *testing.T) {
	m, x := orderedMap(t, WithInitialBuckets(1024))
	want := map[string]uint64{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		x.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	const victim = "k3"
	requireExactHints(t, x, want, "after the inserts")
	growAll(m, x) // the victim's hint now names a migrated copy
	requireExactHints(t, x, want, "after a grow")

	other := m.NewThread()
	deleted := 0
	scanReadHook = func(key string) {
		if key == victim && deleted == 0 {
			deleted++
			other.Delete(victim)
		}
	}
	defer func() { scanReadHook = nil }()
	delete(want, victim)
	aborts := x.t.Stats.ShortAborts
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("scan: %d fallbacks, want 0", fb)
	}
	scanReadHook = nil
	if deleted != 1 {
		t.Fatalf("hook deleted %d times, want 1", deleted)
	}
	if got := x.t.Stats.ShortAborts - aborts; got != 1 {
		t.Fatalf("%d short aborts in the scan, want 1 (the victim's ShortRO3)", got)
	}
	if hint := hintOf(t, other, "k2"); hint != enc(nodeOf(t, other, "k2")) {
		t.Fatalf("a neighbour's hint %#x moved", uint64(hint))
	}
	requireExactHints(t, x, want, "after the delete")
}

// TestScanStartAtKey: a scan from a live start key begins at the key's
// entry, reached through its hash node, and makes no index search; from
// an absent or empty start key it descends once. Either way it returns
// what a scan from the beginning returns past start.
func TestScanStartAtKey(t *testing.T) {
	_, x := orderedMap(t) // 4 buckets per shard: the inserts grow every shard
	var all []string
	for i := 0; i < 400; i += 2 {
		k := fmt.Sprintf("k%03d", i)
		x.Put(k, word.FromUint(uint64(i)))
		all = append(all, k)
	}
	sort.Strings(all)
	for _, tc := range []struct {
		start, end string
		limit      int
		live       bool
	}{
		{"k010", "", 0, true},
		{"k010", "k050", 0, true},
		{"k398", "", 0, true},
		{"k000", "", 7, true},
		{"k100", "k100", 0, true},
		{"k011", "k050", 0, false},
		{"k399", "", 0, false},
		{"a", "", 5, false},
		{"", "k020", 0, false},
	} {
		var wantKeys []string
		for _, k := range all {
			if k >= tc.start && (tc.end == "" || k < tc.end) && (tc.limit <= 0 || len(wantKeys) < tc.limit) {
				wantKeys = append(wantKeys, k)
			}
		}
		before := x.OpStats().IndexSearches
		keys, vals, err := x.Scan(tc.start, tc.end, tc.limit, nil, nil)
		searches := x.OpStats().IndexSearches - before
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("Scan(%q, %q, %d)", tc.start, tc.end, tc.limit)
		if want := map[bool]uint64{true: 0, false: 1}[tc.live]; searches != want {
			t.Errorf("%s: %d index searches, want %d", name, searches, want)
		}
		if fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
			t.Fatalf("%s = %v, want %v", name, keys, wantKeys)
		}
		for i, k := range keys {
			if want := word.FromUint(uint64(atoi(t, k[1:]))); vals[i] != want {
				t.Fatalf("%s: %q = %d, want %d", name, k, vals[i].Uint(), want.Uint())
			}
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScanDuringResize: two scanners run full scans while writers insert
// enough fresh keys to grow every shard several times, deleting them
// again behind a lag. Every scan must be sorted, hold every stable key
// with its value, hold no writer key that was deleted before the scan
// began or inserted after it ended, and make no fallback.
func TestScanDuringResize(t *testing.T) {
	const writers, stable = 2, 256
	perWriter := 6000
	if testing.Short() {
		perWriter = 1500
	}
	m, x := orderedMap(t, WithShards(2))
	for i := 0; i < stable; i++ {
		x.Put(fmt.Sprintf("s%04d", i), word.FromUint(uint64(i)))
	}
	wkey := func(w, i int) string { return fmt.Sprintf("w%d-%06d", w, i) }
	// inserted[w] is one past the last key writer w has started to
	// insert; deleted[w] is one past the last key it has deleted. Keys
	// are never reinserted.
	var inserted, deleted [writers]atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.NewThread()
			for i := 0; i < perWriter; i++ {
				inserted[w].Store(int64(i + 1)) // before the key can be seen
				th.Put(wkey(w, i), word.FromUint(uint64(i)))
				if i >= 64 && i%3 != 0 {
					d := int(deleted[w].Load())
					th.Delete(wkey(w, d))
					deleted[w].Store(int64(d + 1))
				}
			}
		}(w)
	}
	var scans atomic.Int64
	var swg sync.WaitGroup
	for s := 0; s < 2; s++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			th := m.NewThread()
			var keys []string
			var vals []Value
			for !stop.Load() && !t.Failed() {
				var dead [writers]int64
				for w := range dead {
					dead[w] = deleted[w].Load()
				}
				var err error
				keys, vals, err = th.Scan("", "", 0, keys[:0], vals[:0])
				if err != nil {
					t.Error(err)
					return
				}
				var born [writers]int64
				for w := range born {
					born[w] = inserted[w].Load()
				}
				nstable := 0
				for i, k := range keys {
					if i > 0 && keys[i-1] >= k {
						t.Errorf("scan out of order: %q before %q", keys[i-1], k)
						return
					}
					var w, n int
					if _, err := fmt.Sscanf(k, "w%d-%d", &w, &n); err == nil {
						if int64(n) < dead[w] || int64(n) >= born[w] || vals[i].Uint() != uint64(n) {
							t.Errorf("scan returned %q = %d; writer %d had deleted %d and inserted %d keys",
								k, vals[i].Uint(), w, dead[w], born[w])
							return
						}
						continue
					}
					if _, err := fmt.Sscanf(k, "s%d", &n); err != nil || vals[i].Uint() != uint64(n) {
						t.Errorf("scan returned %q = %d", k, vals[i].Uint())
						return
					}
					nstable++
				}
				if nstable != stable {
					t.Errorf("scan returned %d stable keys, want %d", nstable, stable)
					return
				}
				scans.Add(1)
			}
			if fb := th.OpStats().ScanFallbacks; fb != 0 {
				t.Errorf("%d scan fallbacks, want 0", fb)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	swg.Wait()
	if scans.Load() == 0 {
		t.Fatal("no scan completed")
	}
	grown := 0
	for i := range m.shards {
		if n := len(m.shards[i].state.Load().cur.buckets); n > 4 {
			grown++
		}
	}
	if grown != len(m.shards) {
		t.Fatalf("%d of %d shards grew; the test must resize every shard", grown, len(m.shards))
	}
	t.Logf("%d scans beside %d×%d inserts", scans.Load(), writers, perWriter)
}
