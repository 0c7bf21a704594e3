package shardmap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// TestGetEachMatchesGet checks GetEach against Get. Each batch is
// touched first (Touch, then GetEach), as a server command run does.
// Batches mix present, absent and repeated keys. Quiescent, every answer equals a Get of the
// same key. Under a concurrent updater, a deleter and a grower, every
// answer is one a Get could give: stable keys are found, never-inserted
// keys are not, and every value found was written under the key it was
// found for (a value read outside a validated transaction, such as a
// writer's lock word, decodes to the wrong key).
func TestGetEachMatchesGet(t *testing.T) {
	for name, cfg := range map[string]core.Config{
		"val":    {Layout: core.LayoutVal},
		"orec-g": {Layout: core.LayoutOrec},
	} {
		t.Run(name, func(t *testing.T) { runGetEachMatchesGet(t, cfg) })
	}
}

func runGetEachMatchesGet(t *testing.T, cfg core.Config) {
	const stable, churn, absent = 192, 64, 64
	m := New(core.New(cfg), WithShards(2), WithInitialBuckets(2))
	x := m.NewThread()
	// Values encode the key's index above bit 20; key 0 is never used,
	// so a lock word or a zero word cannot pass for a value.
	keys := make([]string, 1+stable+churn+absent)
	for i := 1; i < len(keys); i++ {
		keys[i] = fmt.Sprintf("ge-%05d", i)
		if i%3 == 0 {
			keys[i] += "-with-a-suffix-past-sixteen-bytes"
		}
	}
	isStable := func(i int) bool { return i <= stable }
	isAbsent := func(i int) bool { return i > stable+churn }
	for i := 1; i <= stable+churn; i++ {
		x.Put(keys[i], word.FromUint(uint64(i)<<20))
	}

	batch := make([]string, 70)
	idx := make([]int, 70)
	vals := make([]Value, 70)
	found := make([]bool, 70)
	draw := func(r *rng.State) int {
		n := 1 + int(r.Intn(uint64(len(batch))))
		for j := 0; j < n; j++ {
			if j > 0 && r.Intn(8) == 0 {
				idx[j] = idx[r.Intn(uint64(j))] // repeat an earlier key
			} else {
				idx[j] = 1 + int(r.Intn(uint64(len(keys)-1)))
			}
			batch[j] = keys[idx[j]]
		}
		return n
	}
	quiescent := func(r *rng.State) {
		for round := 0; round < 200; round++ {
			n := draw(r)
			x.Touch(batch[:n])
			x.GetEach(batch[:n], vals, found)
			for j := 0; j < n; j++ {
				v, ok := x.Get(batch[j])
				if ok != found[j] || v != vals[j] {
					t.Fatalf("GetEach(%q) = %v,%v; Get = %v,%v", batch[j], vals[j].Uint(), found[j], v.Uint(), ok)
				}
			}
		}
	}
	r := rng.New(7)
	quiescent(r)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // updater: stable keys, values tagged with the key
		defer wg.Done()
		w := m.NewThread()
		r := rng.New(11)
		for tick := uint64(1); !stop.Load(); tick++ {
			i := 1 + int(r.Intn(stable))
			w.Put(keys[i], word.FromUint(uint64(i)<<20|tick&0xfffff))
		}
	}()
	go func() { // deleter: churn keys come and go
		defer wg.Done()
		w := m.NewThread()
		r := rng.New(13)
		for !stop.Load() {
			i := stable + 1 + int(r.Intn(churn))
			if !w.Delete(keys[i]) {
				w.Put(keys[i], word.FromUint(uint64(i)<<20))
			}
		}
	}()
	go func() { // grower: every shard doubles, and new buckets link on first use
		defer wg.Done()
		w := m.NewThread()
		for g := 0; g < 5 && !stop.Load(); g++ {
			growAll(m, w)
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(4 * stressDuration())
	for time.Now().Before(deadline) {
		n := draw(r)
		x.Touch(batch[:n])
		x.GetEach(batch[:n], vals, found)
		for j := 0; j < n; j++ {
			i := idx[j]
			switch {
			case isStable(i) && !found[j]:
				t.Errorf("GetEach lost stable key %q", batch[j])
			case isAbsent(i) && found[j]:
				t.Errorf("GetEach found never-inserted key %q", batch[j])
			case found[j] && vals[j].Uint()>>20 != uint64(i):
				t.Errorf("GetEach(%q) = %#x, a value never written to it", batch[j], vals[j].Uint())
			}
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	quiescent(r)
}

// TestTVarEngineRejected: the map's 8-byte words cannot carry the orec
// LayoutTVar co-locates with every word, so Open returns ErrTVarLayout
// and New panics with it.
func TestTVarEngineRejected(t *testing.T) {
	e := core.New(core.Config{Layout: core.LayoutTVar})
	if m, err := Open(e, t.TempDir()); !errors.Is(err, ErrTVarLayout) || m != nil {
		t.Fatalf("Open on a tvar engine = %v, %v; want nil, ErrTVarLayout", m, err)
	}
	defer func() {
		if r := recover(); r != ErrTVarLayout.Error() {
			t.Fatalf("New on a tvar engine panicked with %v, want %q", r, ErrTVarLayout.Error())
		}
	}()
	New(e)
}

// TestNodeCmpOrder checks a chain compare against plain key order when
// the hashes tie: keys that share their first 16 bytes, keys that
// differ only past them, and keys that differ only in trailing NULs,
// which the zero-padded prefix words alone cannot tell apart.
func TestNodeCmpOrder(t *testing.T) {
	long := "0123456789abcdef"
	keys := []string{"", "a", "a\x00", "a\x00\x00", "ab", long, long + "\x00", long + "x",
		long + "y", long + "xy", long[:15], long[:15] + "\x00", "\xff", "\xff\xff"}
	for _, a := range keys {
		var n node
		n.hash, n.key = 42, a
		n.p0, n.p1 = prefixWords(a)
		for _, b := range keys {
			p0, p1 := prefixWords(b)
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if got := n.cmp(42, p0, p1, b); got != want {
				t.Errorf("node %q against %q: cmp = %d, want %d", a, b, got, want)
			}
			if got := n.cmp(41, p0, p1, b); got != 1 {
				t.Errorf("node %q against a smaller hash: cmp = %d, want 1", a, got)
			}
			if got := n.cmp(43, p0, p1, b); got != -1 {
				t.Errorf("node %q against a larger hash: cmp = %d, want -1", a, got)
			}
		}
	}
}
