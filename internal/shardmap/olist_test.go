package shardmap

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// prefixLess is the order a search step applies: prefix words first, the
// keys themselves on a tie.
func prefixLess(a, b string) bool {
	n := inode{key: a}
	n.p0, n.p1 = prefixWords(a)
	p0, p1 := prefixWords(b)
	return n.less(p0, p1, b)
}

var prefixOrderCases = []string{
	"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00b", "a\x01", "ab", "abc",
	"abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghijklmno",
	"abcdefghijklmnop", "abcdefghijklmnop\x00", "abcdefghijklmnopq", "abcdefghijklmnopr",
	"abcdefghijklmnoq", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	// composite secondary keys: index key ++ "\x00" ++ primary key
	"0000000000000001\x00k1", "0000000000000001\x00k10", "0000000000000001\x00k2",
	"0000000000000002\x00k1", "k\x00k", "k\x00k1", "k1\x00k1", "k1\x00k",
}

// TestPrefixOrder: on every pair of the edge cases — the empty key,
// embedded NULs, a key that is a proper prefix of another, keys equal
// through byte 16, composite secondary keys — prefix-word order followed
// by the fallback is exactly a < b.
func TestPrefixOrder(t *testing.T) {
	for _, a := range prefixOrderCases {
		for _, b := range prefixOrderCases {
			if got, want := prefixLess(a, b), a < b; got != want {
				t.Errorf("less(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func FuzzPrefixOrder(f *testing.F) {
	for i, a := range prefixOrderCases {
		f.Add(a, prefixOrderCases[(i+1)%len(prefixOrderCases)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if prefixLess(a, b) != (a < b) || prefixLess(b, a) != (b < a) {
			t.Fatalf("prefix order disagrees with string order on %q, %q", a, b)
		}
	})
}

// TestInodeLayout pins what DESIGN.md's cost model rests on: the entry
// size (bytes_per_key; the arena keeps generations in a side array), the
// words a search step reads lying side by side, and the hint a scan
// reads sitting next to the key and hash.
func TestInodeLayout(t *testing.T) {
	var n inode
	if got := unsafe.Sizeof(n); got != 152 {
		t.Errorf("entry is %d B, want 152", got)
	}
	if p, nx := unsafe.Offsetof(n.p0), unsafe.Offsetof(n.next); nx-p != 16 {
		t.Errorf("prefix words at %d, tower at %d: want them adjacent", p, nx)
	}
	if hi, k := unsafe.Offsetof(n.hint), unsafe.Offsetof(n.key); k-hi != 8 {
		t.Errorf("hint at %d, key at %d: want them adjacent", hi, k)
	}
}

// olistKeys returns n 16-byte keys, in ascending order or scrambled.
func olistKeys(n int, scrambled bool) []string {
	keys := make([]string, n)
	for i := range keys {
		u := uint64(i)
		if scrambled {
			u = rng.Mix(u)
		}
		keys[i] = fmt.Sprintf("%016x", u)
	}
	return keys
}

// olistFill builds an index of keys directly (no hash map).
func olistFill(m *Map, x *Thread, keys []string) {
	x.t.Epoch.Enter()
	for _, k := range keys {
		m.ordered.add(x, k, 0)
	}
	x.t.Epoch.Exit()
}

// olistDrop releases one reference on key's entry, if it is present.
func olistDrop(ol *olist, x *Thread, key string) {
	if h, found := ol.search(x, key); found {
		ol.release(x, key, h)
	}
}

// TestOlistSearchHeight pins the tower height: once an index holds n
// entries, inserted in key order or scrambled, a search visits at most
// 4·log₄ n + 16 entries on average (p = ¼ costs 4 per occupied level).
// A height cap or a draw that leaves the top level a long list — the
// p = ½, 12-level index at 1 Mi keys walked 512 entries there — fails it.
func TestOlistSearchHeight(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 17
	}
	for _, order := range []string{"sequential", "scrambled"} {
		t.Run(order, func(t *testing.T) {
			m := New(core.New(core.Config{Layout: core.LayoutVal}), WithOrdered())
			x := m.NewThread()
			keys := olistKeys(n, order == "scrambled")
			olistFill(m, x, keys)

			const probes = 4096
			before := x.OpStats()
			x.t.Epoch.Enter()
			for i := 0; i < probes; i++ {
				k := keys[rng.Mix(uint64(i))%uint64(n)]
				if _, found := m.ordered.search(x, k); !found {
					t.Fatalf("key %q not found", k)
				}
			}
			x.t.Epoch.Exit()
			after := x.OpStats()
			if got := after.IndexSearches - before.IndexSearches; got != probes {
				t.Fatalf("IndexSearches advanced by %d over %d searches", got, probes)
			}
			mean := float64(after.IndexSteps-before.IndexSteps) / probes
			bound := 4*math.Log2(float64(n))/2 + 16
			t.Logf("n=%d: %.1f entries visited per search (bound %.0f)", n, mean, bound)
			if mean > bound {
				t.Errorf("a search visits %.1f entries at n=%d, over 4·log₄ n + 16 = %.0f: towers are too short for the key count", mean, n, bound)
			}
		})
	}
}

// TestOlistSearchesPerMutation pins the search count of each mutation on
// a quiescent thread: an insert is one search, an update none, a delete
// none for an entry of height 1 (it releases the hash node's entry and
// reads its predecessor from the back link) and one for a taller one
// (the pass that splices the marked upper levels out before the retire).
func TestOlistSearchesPerMutation(t *testing.T) {
	m := New(core.New(core.Config{Layout: core.LayoutVal}), WithOrdered())
	x := m.NewThread()
	for i := 0; i < 512; i++ { // neighbours at the default heights
		x.Put(fmt.Sprintf("n%04d", i), word.FromUint(1))
	}
	searches := func(op func()) uint64 {
		before := x.OpStats().IndexSearches
		op()
		return x.OpStats().IndexSearches - before
	}
	for _, tc := range []struct{ lvl, del int }{{1, 0}, {2, 1}, {idxMaxLevel, 1}} {
		m.ordered.level = func(*rng.State) int { return tc.lvl }
		k := fmt.Sprintf("n0100-lvl%d", tc.lvl)
		if got := searches(func() { x.Put(k, word.FromUint(2)) }); got != 1 {
			t.Errorf("insert at height %d: %d searches, want 1", tc.lvl, got)
		}
		if got := searches(func() { x.Put(k, word.FromUint(3)); x.Update(k, word.FromUint(4)) }); got != 0 {
			t.Errorf("updates at height %d: %d searches, want 0", tc.lvl, got)
		}
		if got := searches(func() { x.Delete(k) }); got != uint64(tc.del) {
			t.Errorf("delete at height %d: %d searches, want %d", tc.lvl, got, tc.del)
		}
	}
}

// olistCheck verifies a quiescent index: level 0 is strictly sorted and
// mark-free, every level-0 entry's back link names its predecessor (Null
// for the first), every upper level is mark-free and a sub-sequence of level
// 0 within each entry's drawn height, and the arena holds exactly the
// linked entries — nothing retired while linked, nothing leaked.
func olistCheck(t *testing.T, ol *olist, x *Thread) []string {
	t.Helper()
	chain := func(lv int) []arena.Handle {
		var out []arena.Handle
		for link := x.t.SingleRead(ol.headVar(lv)); !link.IsNull(); {
			if link.Marked() {
				t.Fatalf("level %d: marked link in a quiescent index", lv)
			}
			h := dec(link)
			if !ol.a.Validate(h) {
				t.Fatalf("level %d: linked entry %#x is not live in the arena", lv, uint64(h))
			}
			out = append(out, h)
			link = x.t.SingleRead(ol.nextVar(h, ol.a.Get(h), lv))
		}
		return out
	}
	base := chain(0)
	pos := make(map[arena.Handle]int, len(base))
	keys := make([]string, len(base))
	for i, h := range base {
		pos[h], keys[i] = i, ol.a.Get(h).key
		if i > 0 && keys[i-1] >= keys[i] {
			t.Fatalf("level 0 out of order: %q before %q", keys[i-1], keys[i])
		}
		want := word.Null
		if i > 0 {
			want = enc(base[i-1])
		}
		if got := x.t.SingleRead(ol.prevVar(h, ol.a.Get(h))); got != want {
			t.Fatalf("level 0: entry %q has back link %#x, want %#x", keys[i], uint64(got), uint64(want))
		}
	}
	for lv := 1; lv < idxMaxLevel; lv++ {
		last := -1
		for _, h := range chain(lv) {
			p, ok := pos[h]
			if !ok || p <= last {
				t.Fatalf("level %d: entry %q is not a sub-sequence of level 0", lv, ol.a.Get(h).key)
			}
			if int(ol.a.Get(h).lvl) <= lv {
				t.Fatalf("level %d: entry %q linked above its height %d", lv, ol.a.Get(h).key, ol.a.Get(h).lvl)
			}
			last = p
		}
	}
	if live := ol.a.Live(); live != uint64(len(base)) {
		t.Fatalf("arena holds %d entries, level 0 links %d", live, len(base))
	}
	return keys
}

// TestOlistHammer: writers insert and delete the same 64 keys, so entries
// are resurrected, raised and removed under each other, with towers
// forced tall so raise and the upper-level marking run on nearly every
// mutation; scanners assert sorted, duplicate-free output of live
// universe keys throughout. Then the quiescent structure check.
func TestOlistHammer(t *testing.T) {
	m := New(core.New(core.Config{MaxThreads: 16}), WithOrdered(), WithShards(2), WithInitialBuckets(4))
	m.ordered.level = func(r *rng.State) int { return 1 + int(r.Intn(idxMaxLevel)) }
	const nkeys = 64
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%03d", i)
	}
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	threads := make([]*Thread, 0, 6)
	var wg, swg sync.WaitGroup
	for w := 0; w < 4; w++ {
		x := m.NewThread()
		threads = append(threads, x)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; i < ops; i++ {
				k := int(r.Intn(nkeys))
				if r.Next()&1 == 0 {
					x.Put(keys[k], word.FromUint(uint64(k)))
				} else {
					x.Delete(keys[k])
				}
			}
		}(w)
	}
	done := make(chan struct{})
	for s := 0; s < 2; s++ {
		x := m.NewThread()
		threads = append(threads, x)
		swg.Add(1)
		go func() {
			defer swg.Done()
			var sk []string
			var sv []Value
			for {
				select {
				case <-done:
					return
				default:
				}
				sk, sv, _ = x.Scan("", "", 0, sk[:0], sv[:0])
				for i, k := range sk {
					if i > 0 && sk[i-1] >= k {
						t.Errorf("scan: %q before %q", sk[i-1], k)
						return
					}
					if j := sort.SearchStrings(keys, k); j == nkeys || keys[j] != k || sv[i].Uint() != uint64(j) {
						t.Errorf("scan: %q=%d is not a universe key with its own value", k, sv[i].Uint())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	swg.Wait()
	if t.Failed() {
		return
	}
	for _, x := range threads {
		x.t.Epoch.Flush()
	}
	x := threads[0]
	got := olistCheck(t, m.ordered, x)
	var want []string
	for _, k := range keys {
		if _, ok := x.Get(k); ok {
			want = append(want, k)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("index holds %v, map holds %v", got, want)
	}
}

// TestOlistRemoveInterleavings drives the level-0 unlink through the
// races the back link must survive, with removeHook running the racing
// operation on a second thread after the remover has read its entry's
// back link and before its commit: an insert just before the entry (the
// commit finds the predecessor link moved and retries from the new back
// link), an insert just after it (the commit repoints the new entry's
// back link), and the removal of either neighbour. Every case runs at
// height one and with towers, and ends with olistCheck, which checks
// every back link.
func TestOlistRemoveInterleavings(t *testing.T) {
	cases := []struct {
		name   string
		keys   []string
		race   func(ol *olist, x *Thread)
		want   []string
		unlink int // commits the remover attempts
	}{
		{"insert before", []string{"b", "d", "f"},
			func(ol *olist, x *Thread) { ol.add(x, "c", 0) }, []string{"b", "c", "f"}, 2},
		{"insert after", []string{"b", "d", "f"},
			func(ol *olist, x *Thread) { ol.add(x, "e", 0) }, []string{"b", "e", "f"}, 1},
		{"insert first", []string{"d", "f"},
			func(ol *olist, x *Thread) { ol.add(x, "a", 0) }, []string{"a", "f"}, 2},
		{"remove before", []string{"a", "b", "d", "f"},
			func(ol *olist, x *Thread) { olistDrop(ol, x, "b") }, []string{"a", "f"}, 2},
		{"remove after", []string{"a", "b", "d", "f", "g"},
			func(ol *olist, x *Thread) { olistDrop(ol, x, "f") }, []string{"a", "b", "g"}, 1},
		{"remove last after", []string{"b", "d", "f"},
			func(ol *olist, x *Thread) { olistDrop(ol, x, "f") }, []string{"b"}, 1},
	}
	for _, lvl := range []int{1, 3} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/height%d", tc.name, lvl), func(t *testing.T) {
				m := New(core.New(core.Config{Layout: core.LayoutVal}), WithOrdered())
				m.ordered.level = func(*rng.State) int { return lvl }
				ol := m.ordered
				x, x2 := m.NewThread(), m.NewThread()
				// Filled in descending order, so every publish but the
				// first has a successor whose back link it moves.
				fill := append([]string(nil), tc.keys...)
				sort.Sort(sort.Reverse(sort.StringSlice(fill)))
				olistFill(m, x, fill)
				olistCheck(t, ol, x)
				unlinks, raced := 0, false
				removeHook = func(key string) {
					if key != "d" {
						return
					}
					if unlinks++; unlinks > 100 {
						t.Fatalf("the remover retried its unlink %d times: its back link never names its predecessor", unlinks)
					}
					if !raced {
						raced = true
						x2.t.Epoch.Enter()
						tc.race(ol, x2)
						x2.t.Epoch.Exit()
					}
				}
				defer func() { removeHook = nil }()
				x.t.Epoch.Enter()
				olistDrop(ol, x, "d")
				x.t.Epoch.Exit()
				removeHook = nil
				if unlinks != tc.unlink {
					t.Errorf("the remover attempted %d unlink commits, want %d", unlinks, tc.unlink)
				}
				x.t.Epoch.Flush()
				x2.t.Epoch.Flush()
				if got := olistCheck(t, ol, x); fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("index holds %v, want %v", got, tc.want)
				}
			})
		}
	}
}
