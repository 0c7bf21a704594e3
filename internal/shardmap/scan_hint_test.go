package shardmap

import (
	"fmt"
	"testing"

	"spectm/internal/arena"
	"spectm/internal/word"
)

// hintOf returns the hint in key's primary index entry and the entry's
// handle. The index must hold key.
func hintOf(t *testing.T, x *Thread, key string) (word.Value, arena.Handle) {
	t.Helper()
	ol := x.m.ordered
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	eh, found := ol.search(x, key)
	if !found {
		t.Fatalf("no index entry for %q", key)
	}
	return x.t.SingleRead(ol.hintVar(eh, ol.a.Get(eh))), eh
}

// nodeOf returns the handle of key's hash node and the sequence number
// of the table holding it. The map must hold key.
func nodeOf(t *testing.T, x *Thread, key string) (arena.Handle, uint64) {
	t.Helper()
	_, cur, seq, ok := x.lookupLive(key, x.m.hash(key))
	if !ok {
		t.Fatalf("%q is not in the map", key)
	}
	return cur, seq
}

// hold takes one extra reference on key's index entry, as an insert of
// the key in flight would, so the entry outlives a delete of the key and
// scans keep visiting it.
func hold(x *Thread, key string) {
	x.t.Epoch.Enter()
	x.m.ordered.add(x, key, x.m.hash(key), 0)
	x.t.Epoch.Exit()
}

func unhold(x *Thread, key string) {
	x.t.Epoch.Enter()
	x.m.ordered.drop(x, key)
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

// TestScanHintResize: a grow makes every hint stale, so the next scan
// falls back on every candidate and still reads the right values, even
// with the migrated nodes' slots recycled under new keys; the scan
// after that reads every candidate through its refreshed hint.
func TestScanHintResize(t *testing.T) {
	m, x := orderedMap(t)
	want := map[string]uint64{}
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("k%03d", i)
		x.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	if fb := scanFallbacks(t, x, want); fb != 256 {
		t.Fatalf("first scan: %d fallbacks, want 256 (no hints yet)", fb)
	}
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("second scan: %d fallbacks, want 0", fb)
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		x.grow(sh, sh.state.Load().cur)
		sh.mu.Unlock()
	}
	x.t.Epoch.Flush()
	for i := 0; i < 128; i++ { // reuses migrated slots; stays below the next grow
		k := fmt.Sprintf("n%03d", i)
		x.Put(k, word.FromUint(uint64(1000+i)))
		want[k] = uint64(1000 + i)
	}
	if fb := scanFallbacks(t, x, want); fb != 384 {
		t.Fatalf("scan after the grow: %d fallbacks, want 384 (every hint stale or empty)", fb)
	}
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("scan after the refresh: %d fallbacks, want 0", fb)
	}
	for k := range want {
		hint, _ := hintOf(t, x, k)
		h, seq := nodeOf(t, x, k)
		if hint != encHint(h, seq) {
			t.Fatalf("%q: hint %#x, want node %#x in table %d", k, uint64(hint), uint64(h), seq)
		}
	}
}

// TestScanHintDelete: a delete empties the hint of an entry that outlives
// it, so once the deleted node's slot holds another key, a scan still
// omits the deleted key and never reads that slot for it. Reinserting
// the key costs one fallback, and the scan after that reads it hinted.
func TestScanHintDelete(t *testing.T) {
	m, x := orderedMap(t, WithInitialBuckets(1024)) // no grow in this test
	want := map[string]uint64{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		x.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	scanFallbacks(t, x, want)
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("hinted scan: %d fallbacks, want 0", fb)
	}

	const victim = "k10"
	vh, _ := nodeOf(t, x, victim)
	if hint, _ := hintOf(t, x, victim); hint.IsNull() {
		t.Fatalf("%q has no hint after two scans", victim)
	}
	hold(x, victim)
	x.Delete(victim)
	delete(want, victim)
	if hint, _ := hintOf(t, x, victim); hint != word.Null {
		t.Fatalf("hint %#x survived the delete", uint64(hint))
	}

	// Recycle the deleted node's slot under another key of its shard.
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
		if h, _ := nodeOf(t, x, k); uint64(h)&(1<<32-1) == uint64(vh)&(1<<32-1) {
			recycled = k
		}
	}
	if recycled == "" || sh.a.Validate(vh) {
		t.Fatalf("node slot of %q was not recycled", victim)
	}
	scanFallbacks(t, x, want) // omits victim; reads recycled under its own key only

	x.Put(victim, word.FromUint(77))
	want[victim] = 77
	unhold(x, victim)
	if fb := scanFallbacks(t, x, want); fb != 1 {
		t.Fatalf("scan after the reinsert: %d fallbacks, want 1", fb)
	}
	if fb := scanFallbacks(t, x, want); fb != 0 {
		t.Fatalf("hinted scan after the reinsert: %d fallbacks, want 0", fb)
	}
}

// TestScanHintRefreshLosesToDelete: a delete that lands between a scan's
// fallback lookup and its hint refresh makes the refresh commit fail,
// and the hint stays empty.
func TestScanHintRefreshLosesToDelete(t *testing.T) {
	m, x := orderedMap(t, WithInitialBuckets(1024))
	want := map[string]uint64{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		x.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	const victim = "k3"
	scanFallbacks(t, x, want)
	// Give victim a fresh, unhinted node under an entry that outlives
	// the hook's delete.
	hold(x, victim)
	x.Delete(victim)
	x.Put(victim, word.FromUint(3))

	other := m.NewThread()
	deleted := 0
	scanRefreshHook = func() {
		deleted++
		other.Delete(victim)
	}
	defer func() { scanRefreshHook = nil }()
	aborts := x.t.Stats.ShortAborts
	if fb := scanFallbacks(t, x, want); fb != 1 { // victim read before the delete
		t.Fatalf("scan: %d fallbacks, want 1", fb)
	}
	scanRefreshHook = nil
	if deleted != 1 {
		t.Fatalf("refresh hook ran %d times, want 1", deleted)
	}
	if got := x.t.Stats.ShortAborts - aborts; got != 1 {
		t.Fatalf("%d short aborts in the scan, want 1 (the refresh commit)", got)
	}
	if hint, _ := hintOf(t, x, victim); hint != word.Null {
		t.Fatalf("refresh that lost to a delete left hint %#x", uint64(hint))
	}
	delete(want, victim)
	if fb := scanFallbacks(t, x, want); fb != 1 {
		t.Fatalf("scan after the delete: %d fallbacks, want 1", fb)
	}
	unhold(x, victim)
}
