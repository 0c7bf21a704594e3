package shardmap

import (
	"fmt"
	"testing"

	"spectm/internal/core"
	"spectm/internal/word"
)

// TestScanSnapshotAcrossResize is the deterministic form of the
// TestScanOracle "torn Swap2" flake. A scan takes its timestamp, a Swap2
// commits after it, and then the first key's shard (only) grows: the
// migrated copy of that key is a fresh word with no version history, so
// a snapshot read of it returns the post-swap value as if it were the
// value at the timestamp, while the second key's untouched word serves
// its pre-swap value from the history ring — a pair no single instant
// ever held. The scan must either report both values of one instant or
// count a fallback for the candidate it could not place.
func TestScanSnapshotAcrossResize(t *testing.T) {
	e := core.New(core.Config{MaxThreads: 8, Snapshots: true})
	m := New(e, WithOrdered(), WithShards(2), WithInitialBuckets(2))
	w, r := m.NewThread(), m.NewThread()

	// One pair key per shard, plus filler keys that all land in a's.
	var a, b string
	var filler []string
	for i := 0; a == "" || b == "" || len(filler) < 64; i++ {
		k := fmt.Sprintf("k%04d", i)
		switch sh := m.shardOf(m.hash(k)); {
		case sh == &m.shards[0] && a == "":
			a = k
		case sh == &m.shards[1] && b == "":
			b = k
		case sh == &m.shards[0]:
			filler = append(filler, k)
		}
	}
	const sum = 1000
	w.Put(a, word.FromUint(300))
	w.Put(b, word.FromUint(sum-300))

	r.t.Epoch.Enter()
	defer r.t.Epoch.Exit()
	at := r.t.SnapshotBegin()

	if !w.Swap2(a, b) {
		t.Fatal("Swap2 failed")
	}
	before := m.shards[0].state.Load()
	for _, k := range filler {
		w.Put(k, word.FromUint(1))
	}
	if m.shards[0].state.Load() == before {
		t.Fatal("filler keys did not grow the shard; the test needs a migrated copy")
	}
	if m.shards[1].state.Load().old != nil || len(m.shards[1].state.Load().cur.buckets) != 2 {
		t.Fatal("the second key's shard must stay unresized")
	}

	va, oka := r.lookupLive(a, m.hash(a), at)
	vb, okb := r.lookupLive(b, m.hash(b), at)
	if !oka || !okb {
		t.Fatalf("pair keys not live: %v %v", oka, okb)
	}
	if fb := r.OpStats().ScanFallbacks; fb == 0 && va.Uint()+vb.Uint() != sum {
		t.Fatalf("fallback-free snapshot reads returned %d + %d, want sum %d: a migrated copy served a post-timestamp value",
			va.Uint(), vb.Uint(), sum)
	}
}
