package shardmap

import (
	"bytes"
	"fmt"
	"testing"

	"spectm/internal/core"
	"spectm/internal/wal"
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
	if err := x.CreateIndex("ix", "value"); err != ErrNoOrdered {
		t.Fatalf("CreateIndex on unordered map: err = %v, want ErrNoOrdered", err)
	}
}

func TestSecondaryIndex(t *testing.T) {
	_, x := orderedMap(t)
	for i := 0; i < 40; i++ {
		x.Put(fmt.Sprintf("user:%02d", i), word.FromUint(uint64(i%4)))
	}
	if err := x.CreateIndex("byval", "value"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// Idempotent re-create; conflicting kind refused.
	if err := x.CreateIndex("byval", "value"); err != nil {
		t.Fatalf("idempotent CreateIndex: %v", err)
	}
	if err := x.CreateIndex("byval", "key"); err == nil {
		t.Fatal("CreateIndex with conflicting kind succeeded")
	}
	if err := x.CreateIndex("nope", "prefix:0"); err == nil {
		t.Fatal("CreateIndex with bad kind succeeded")
	}

	score := func(v uint64) string { return fmt.Sprintf("%016x", v) }
	keys, vals, err := x.IndexScan("byval", score(2), score(3), 0, nil, nil)
	if err != nil {
		t.Fatalf("IndexScan: %v", err)
	}
	if len(keys) != 10 {
		t.Fatalf("IndexScan val=2: %d keys, want 10", len(keys))
	}
	for i, k := range keys {
		if vals[i].Uint() != 2 {
			t.Fatalf("IndexScan val=2 returned %s=%d", k, vals[i].Uint())
		}
		if i > 0 && keys[i-1] >= k {
			t.Fatalf("IndexScan keys out of order: %q before %q", keys[i-1], k)
		}
	}

	// Updates move entries between index keys; deletes remove them.
	x.Put("user:02", word.FromUint(9))
	x.Delete("user:06")
	keys, _, err = x.IndexScan("byval", score(2), score(3), 0, nil, nil)
	if err != nil || len(keys) != 8 {
		t.Fatalf("IndexScan after churn: %d keys (err %v), want 8", len(keys), err)
	}
	keys, _, err = x.IndexScan("byval", score(9), "", 0, nil, nil)
	if err != nil || len(keys) != 1 || keys[0] != "user:02" {
		t.Fatalf("IndexScan val=9: %v (err %v), want [user:02]", keys, err)
	}

	if _, _, err := x.IndexScan("missing", "", "", 0, nil, nil); err == nil {
		t.Fatal("IndexScan on unknown index succeeded")
	}
}

func TestPrefixIndex(t *testing.T) {
	_, x := orderedMap(t)
	x.Put("eu:paris", word.FromUint(4))
	x.Put("eu:rome", word.FromUint(8))
	x.Put("us:nyc", word.FromUint(12))
	if err := x.CreateIndex("region", "prefix:2"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	keys, _, err := x.IndexScan("region", "eu", "ev", 0, nil, nil)
	if err != nil || len(keys) != 2 {
		t.Fatalf("prefix scan: %v (err %v), want 2 keys", keys, err)
	}
	if keys[0] != "eu:paris" || keys[1] != "eu:rome" {
		t.Fatalf("prefix scan order: %v", keys)
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
	if err := x.CreateIndex("byval", "value"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	x.Put("k05", word.FromUint(77))
	x.Delete("k06")
	if err := m.Save(); err != nil { // snapshot with index defs
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
	defs := m2.Indexes()
	if len(defs) != 1 || defs[0] != [2]string{"byval", "value"} {
		t.Fatalf("recovered index defs = %v", defs)
	}
	keys, _, err := x2.IndexScan("byval", fmt.Sprintf("%016x", 77), fmt.Sprintf("%016x", 78), 0, nil, nil)
	if err != nil || len(keys) != 1 || keys[0] != "k05" {
		t.Fatalf("recovered IndexScan: %v (err %v), want [k05]", keys, err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

func TestSnapshotStreamCarriesIndexDefs(t *testing.T) {
	m, x := orderedMap(t)
	x.Put("a", word.FromUint(4))
	if err := x.CreateIndex("pk", "key"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var defs, entries int
	if _, err := wal.ReadSnapshotRecords(bytes.NewReader(buf.Bytes()), func(r wal.Record) error {
		switch r.Op {
		case wal.OpIdxCreate:
			defs++
			if entries != 0 {
				t.Fatal("index definition after entries")
			}
			if string(r.Key) != "pk" || string(r.Key2) != "key" {
				t.Fatalf("index def = %q/%q", r.Key, r.Key2)
			}
		case wal.OpPut:
			entries++
		}
		return nil
	}); err != nil {
		t.Fatalf("ReadSnapshotRecords: %v", err)
	}
	if defs != 1 || entries != 1 {
		t.Fatalf("snapshot stream: %d defs, %d entries; want 1, 1", defs, entries)
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
