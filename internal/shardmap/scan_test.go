package shardmap

import (
	"fmt"
	"testing"

	"spectm/internal/core"
	"spectm/internal/word"
)

func orderedMap(t *testing.T, opts ...Option) (*Map, *Thread) {
	t.Helper()
	e := core.New(core.Config{MaxThreads: 64})
	m := New(e, append([]Option{WithOrdered(), WithShards(4), WithInitialBuckets(4)}, opts...)...)
	return m, m.NewThread()
}

func collect(t *testing.T, x *Thread, start, end string, limit int) map[string]uint64 {
	t.Helper()
	keys, vals, err := x.Scan(start, end, limit, nil, nil)
	if err != nil {
		t.Fatalf("Scan(%q, %q, %d): %v", start, end, limit, err)
	}
	if len(keys) != len(vals) {
		t.Fatalf("Scan returned %d keys but %d vals", len(keys), len(vals))
	}
	out := make(map[string]uint64, len(keys))
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Scan keys out of order: %q before %q", keys[i-1], keys[i])
		}
	}
	for i, k := range keys {
		out[k] = vals[i].Uint()
	}
	return out
}

func TestScanBasic(t *testing.T) {
	_, x := orderedMap(t)
	for i := 0; i < 100; i++ {
		x.Put(fmt.Sprintf("k%03d", i), word.FromUint(uint64(i)))
	}
	got := collect(t, x, "", "", 0)
	if len(got) != 100 {
		t.Fatalf("full scan: %d keys, want 100", len(got))
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if got[k] != uint64(i) {
			t.Fatalf("scan[%s] = %d, want %d", k, got[k], i)
		}
	}

	got = collect(t, x, "k010", "k020", 0)
	if len(got) != 10 {
		t.Fatalf("range scan: %d keys, want 10", len(got))
	}
	if _, ok := got["k020"]; ok {
		t.Fatal("range scan: end bound k020 included")
	}
	if _, ok := got["k010"]; !ok {
		t.Fatal("range scan: start bound k010 missing")
	}

	keys, _, err := x.Scan("", "", 7, nil, nil)
	if err != nil || len(keys) != 7 {
		t.Fatalf("limited scan: %d keys (err %v), want 7", len(keys), err)
	}

	// Deletions disappear from scans; updates show the new value.
	for i := 0; i < 100; i += 2 {
		x.Delete(fmt.Sprintf("k%03d", i))
	}
	x.Put("k001", word.FromUint(1001))
	got = collect(t, x, "", "", 0)
	if len(got) != 50 {
		t.Fatalf("post-delete scan: %d keys, want 50", len(got))
	}
	if got["k001"] != 1001 {
		t.Fatalf("post-update scan[k001] = %d, want 1001", got["k001"])
	}
	if _, ok := got["k002"]; ok {
		t.Fatal("post-delete scan still sees k002")
	}
}

func TestScanReinsertAndSwap(t *testing.T) {
	_, x := orderedMap(t)
	x.Put("a", word.FromUint(1))
	x.Put("b", word.FromUint(2))
	x.Delete("a")
	x.Put("a", word.FromUint(3))
	if !x.Swap2("a", "b") {
		t.Fatal("Swap2 failed")
	}
	got := collect(t, x, "", "", 0)
	if got["a"] != 2 || got["b"] != 3 {
		t.Fatalf("post-swap scan = %v, want a=2 b=3", got)
	}
}

func TestScanUnordered(t *testing.T) {
	e := core.New(core.Config{MaxThreads: 8})
	m := New(e, WithShards(2))
	x := m.NewThread()
	if m.Ordered() {
		t.Fatal("map reports ordered without WithOrdered")
	}
	if _, _, err := x.Scan("", "", 0, nil, nil); err != ErrNoOrdered {
		t.Fatalf("Scan on unordered map: err = %v, want ErrNoOrdered", err)
	}
}

func TestOrderedPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := core.New(core.Config{MaxThreads: 64})
	m, err := Open(e, dir, WithOrdered(), WithShards(2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	x := m.NewThread()
	for i := 0; i < 30; i++ {
		x.Put(fmt.Sprintf("k%02d", i), word.FromUint(uint64(i)))
	}
	x.Put("k05", word.FromUint(77))
	x.Delete("k06")
	if err := m.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	x.Put("k99", word.FromUint(99)) // post-snapshot log tail
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := core.New(core.Config{MaxThreads: 64})
	m2, err := Open(e2, dir, WithOrdered(), WithShards(2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	x2 := m2.NewThread()
	got := collect(t, x2, "", "", 0)
	if len(got) != 30 {
		t.Fatalf("recovered scan: %d keys, want 30", len(got))
	}
	if got["k05"] != 77 || got["k99"] != 99 {
		t.Fatalf("recovered values wrong: k05=%d k99=%d", got["k05"], got["k99"])
	}
	if _, ok := got["k06"]; ok {
		t.Fatal("recovered scan still sees deleted k06")
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

func TestScanAllocs(t *testing.T) {
	_, x := orderedMap(t)
	for i := 0; i < 64; i++ {
		x.Put(fmt.Sprintf("k%02d", i), word.FromUint(uint64(i)))
	}
	keys := make([]string, 0, 64)
	vals := make([]Value, 0, 64)
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		keys, vals, err = x.Scan("", "", 0, keys[:0], vals[:0])
		if err != nil || len(keys) != 64 {
			t.Fatalf("scan: %d keys, err %v", len(keys), err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Scan into reused slices allocates %.1f/op, want 0", allocs)
	}
	_ = vals
}
