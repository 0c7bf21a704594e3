package shardmap

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// TestGrowMovesNoNode: one thread fills a default map, plain and
// ordered, with 64 Ki keys, growing every shard many times. The fill
// runs no full transaction, and every key's node recorded at 1 Ki keys
// is still its node at 64 Ki, named by its index hint.
func TestGrowMovesNoNode(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []Option
	}{{"plain", nil}, {"ordered", []Option{WithOrdered()}}} {
		t.Run(c.name, func(t *testing.T) {
			m := New(core.New(core.Config{Layout: core.LayoutVal}), c.opts...)
			x := m.NewThread()
			const early, n = 1 << 10, 1 << 16
			nodes := map[string]arena.Handle{}
			for i := 0; i < n; i++ {
				if i == early {
					for k := 0; k < early; k++ {
						nodes[key(k)] = nodeOf(t, x, key(k))
					}
				}
				x.Put(key(i), word.FromUint(uint64(i)))
			}
			if st := x.Thr().Stats; st.Commits != 0 || st.Aborts != 0 {
				t.Fatalf("the fill ran %d full-transaction commits and %d aborts, want 0", st.Commits, st.Aborts)
			}
			if nb := m.shards[0].nb.Load(); nb < 1<<12 {
				t.Fatalf("shard 0 has %d buckets; the fill must grow it", nb)
			}
			for k, h := range nodes {
				if got := nodeOf(t, x, k); got != h {
					t.Fatalf("%q was node %#x at %d keys and is %#x at %d", k, uint64(h), early, uint64(got), n)
				}
				if m.Ordered() {
					if hint := hintOf(t, x, k); hint != enc(h) {
						t.Fatalf("%q's hint %#x does not name its node %#x", k, uint64(hint), uint64(h))
					}
				}
			}
		})
	}
}

// TestBucketInitRace: goroutines run Put, Delete and Get on their own
// keys in a one-shard map whose buckets were just doubled several times,
// so they race to link the same buckets and their parents. Quiescent,
// the shard's list is sorted, every linked slot appears in it exactly
// once and after its parent's, and it holds exactly each goroutine's
// model of its keys.
func TestBucketInitRace(t *testing.T) {
	const workers, perWorker = 4, 200
	ops := 3000
	if testing.Short() {
		ops = 600
	}
	m := New(core.New(core.Config{Layout: core.LayoutVal}), WithShards(1), WithInitialBuckets(2))
	sh := &m.shards[0]
	models := make([]map[string]uint64, workers)
	for i := range models {
		models[i] = map[string]uint64{}
	}
	wkey := func(w, i int) string { return fmt.Sprintf("w%d-%04d", w, i) }
	for round := 0; round < 4; round++ {
		sh.mu.Lock()
		for g := 0; g < 3; g++ {
			sh.grow()
		}
		sh.mu.Unlock()
		var wg, ready sync.WaitGroup
		begin := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			ready.Add(1)
			go func(w int) {
				defer wg.Done()
				x := m.NewThread()
				r := rng.New(uint64(round*workers + w + 1))
				model := models[w]
				ready.Done()
				<-begin
				for i := 0; i < ops; i++ {
					k := wkey(w, int(r.Intn(perWorker)))
					switch r.Intn(3) {
					case 0:
						v := uint64(round<<20 | i)
						x.Put(k, word.FromUint(v))
						model[k] = v
					case 1:
						_, had := model[k]
						if x.Delete(k) != had {
							t.Errorf("Delete(%q) = %v, model has it: %v", k, !had, had)
							return
						}
						delete(model, k)
					default:
						v, ok := x.Get(k)
						if want, had := model[k]; ok != had || ok && v.Uint() != want {
							t.Errorf("Get(%q) = %d, %v; model %d, %v", k, v.Uint(), ok, want, had)
							return
						}
					}
				}
			}(w)
		}
		ready.Wait()
		close(begin)
		wg.Wait()
		if t.Failed() {
			return
		}
		checkSplitList(t, m, sh, models)
	}
}

// checkSplitList walks sh's whole list, quiescent, and checks it
// against the union of models.
func checkSplitList(t *testing.T, m *Map, sh *shard, models []map[string]uint64) {
	t.Helper()
	x := m.NewThread()
	nb := sh.nb.Load()
	pos := map[uint64]int{0: -1} // slot → its place in the list; slot 0 heads it
	seen := map[string]bool{}
	var lastKey uint64
	lastSlot, lastName := true, ""
	link := x.t.SingleRead(m.slotVar(sh, 0))
	for i := 0; !link.IsNull(); i++ {
		if link.Marked() {
			t.Fatalf("entry %d: a marked link in a quiescent list", i)
		}
		if isRef(link) {
			j := refIdx(link)
			if j == 0 || j >= nb {
				t.Fatalf("entry %d: a link to slot %d of %d", i, j, nb)
			}
			if _, dup := pos[j]; dup {
				t.Fatalf("slot %d is linked twice", j)
			}
			if _, ok := pos[parent(j)]; !ok {
				t.Fatalf("slot %d is linked before its parent %d", j, parent(j))
			}
			if so := bits.Reverse64(j); so < lastKey || so == lastKey && !lastSlot {
				t.Fatalf("slot %d (key %#x) is out of order after %#x", j, so, lastKey)
			}
			pos[j] = i
			lastKey, lastSlot, lastName = bits.Reverse64(j), true, ""
			link = x.t.SingleRead(m.slotVar(sh, j))
			continue
		}
		h := dec(link)
		n := sh.a.Get(h)
		if n.hash < lastKey || n.hash == lastKey && !lastSlot && n.key <= lastName {
			t.Fatalf("node %q (key %#x) is out of order after %#x %q", n.key, n.hash, lastKey, lastName)
		}
		if seen[n.key] {
			t.Fatalf("%q is in the list twice", n.key)
		}
		seen[n.key] = true
		found := false
		for _, model := range models {
			if v, ok := model[n.key]; ok {
				found = true
				if got := x.t.SingleRead(m.valVar(sh, h, n)).Uint(); got != v {
					t.Fatalf("%q holds %d, its model %d", n.key, got, v)
				}
			}
		}
		if !found {
			t.Fatalf("%q is in the list, in no model", n.key)
		}
		lastKey, lastSlot, lastName = n.hash, false, n.key
		link = x.t.SingleRead(m.nextVar(sh, h, n))
	}
	for j := uint64(1); j < nb; j++ {
		if _, linked := pos[j]; linked == (x.t.SingleRead(m.slotVar(sh, j)) == uninit) {
			t.Fatalf("slot %d: linked %v, initialised %v", j, linked, !linked)
		}
	}
	want := 0
	for _, model := range models {
		want += len(model)
	}
	if len(seen) != want || m.Len() != want {
		t.Fatalf("the list holds %d keys and Len is %d; the models hold %d", len(seen), m.Len(), want)
	}
}
