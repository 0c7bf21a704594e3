package server

import (
	"strings"
	"testing"
	"time"

	"spectm/internal/backoff"
	"spectm/internal/harness"
	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/word"
)

// TestThreadPoolAffinity pins the pool's shard-affinity contract
// white-box: a parked descriptor that last served a shard is handed to
// the next lease hinting at that shard, ahead of LIFO order.
func TestThreadPoolAffinity(t *testing.T) {
	s, err := New(WithMaxConns(8), WithShards(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown()

	a, _ := s.getThread(-1)
	b, _ := s.getThread(-1)
	// Give a a hot shard by hammering one key; b stays untracked. The
	// Boyer-Moore candidate is whatever shard "warm" hashes to, so read
	// it back rather than assuming.
	for i := 0; i < 8; i++ {
		a.Put("warm", word.FromUint(1))
	}
	aShard := a.HotShard()
	if aShard < 0 {
		t.Fatal("tracker empty after puts")
	}
	s.putThread(a) // records aShard, resets the tracker
	s.putThread(b)

	// LIFO would return b (parked last); the hint must pull a instead.
	got, _ := s.getThread(aShard)
	if got != a {
		t.Fatalf("hinted lease returned the wrong descriptor")
	}
	if got.HotShard() != -1 {
		t.Fatal("leased descriptor's tracker was not reset")
	}
	// A hint nothing matches falls back to LIFO.
	got2, _ := s.getThread(1 << 20)
	if got2 != b {
		t.Fatal("unmatched hint did not fall back to the free list")
	}
	s.putThread(got)
	s.putThread(got2)

	// swapThread: only trades when a parked descriptor matches.
	c, _ := s.getThread(-1)
	if _, ok := s.swapThread(c, 1<<20); ok {
		t.Fatal("swap matched a shard no descriptor served")
	}
	if s.swaps.Load() != 0 {
		t.Fatal("failed swap counted")
	}
	s.putThread(c)
}

// checkPoolParkedOnce asserts, on a drained server, that every descriptor
// the pool made is parked exactly once: a double park lets two
// connections lease one descriptor, a missing one leaks a thread slot.
func checkPoolParkedOnce(t *testing.T, s *Server) {
	t.Helper()
	p := &s.pool
	p.Lock()
	defer p.Unlock()
	seen := make(map[*shardmap.Thread]bool, len(p.free))
	for _, th := range p.free {
		if seen[th] {
			t.Fatalf("descriptor parked twice (%d made, %d parked)", p.made, len(p.free))
		}
		seen[th] = true
	}
	if len(p.free) != p.made {
		t.Fatalf("%d descriptors made, %d parked after drain", p.made, len(p.free))
	}
}

// waitParked waits for a closed connection's goroutine to park its
// descriptor, until n sit in the pool.
func waitParked(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.pool.Lock()
		parked := len(s.pool.free)
		s.pool.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors parked, want %d", parked, n)
		}
	}
}

// TestAffinitySwapThenClose: a connection that traded descriptors in
// maybeRelease must park the one it holds when it closes, not the one it
// was accepted with (which the swap already parked).
func TestAffinitySwapThenClose(t *testing.T) {
	s := startServer(t, WithMaxConns(8), WithShards(4))
	a, b := dial(t, s), dial(t, s)
	// a's descriptor goes back to the pool remembering "warm"'s shard.
	for i := 0; i < 8; i++ {
		a.do(t, "SET", "warm", "1")
	}
	a.nc.Close()
	waitParked(t, s, 1)
	// b hammers the same shard up to its first affinity check.
	for i := 0; i < affinityEvery; i++ {
		b.do(t, "SET", "warm", "1")
	}
	if s.swaps.Load() != 1 {
		t.Fatalf("affinity_swaps = %d, want the one forced swap", s.swaps.Load())
	}
	b.nc.Close()
	s.Shutdown()
	checkPoolParkedOnce(t, s)
}

// TestZipfRunsBackToBack is the field report: the third zipf load run
// against one server panicked with "epoch: nested Enter", two
// connections sharing a descriptor parked twice by an earlier run.
func TestZipfRunsBackToBack(t *testing.T) {
	s := startServer(t, WithMaxConns(16), WithShards(4))
	for run := 0; run < 3; run++ {
		res, err := harness.RunNet(harness.NetWorkload{
			Addr:        s.Addr().String(),
			Keys:        512,
			Dist:        "zipf",
			Duration:    300 * time.Millisecond,
			SkipPreload: run > 0,
		})
		if err != nil || res.Errors != 0 {
			t.Fatalf("run %d: err %v, %d error replies", run, err, res.Errors)
		}
	}
	s.Shutdown()
	checkPoolParkedOnce(t, s)
}

// TestStatsEngineThreads: engine_threads is the validation width, the
// high-water mark of descriptors ever leased: it grows with concurrent
// connections and stays put when a parked descriptor is re-leased.
func TestStatsEngineThreads(t *testing.T) {
	s := startServer(t, WithMaxConns(8))
	c1 := dial(t, s)
	width := func() uint64 {
		t.Helper()
		return parseStats(t, string(c1.do(t, "STATS").Str))["engine_threads"]
	}
	base := width()
	if base == 0 || base != uint64(s.e.Threads()) {
		t.Fatalf("engine_threads = %d, engine reports %d", base, s.e.Threads())
	}
	c2, c3 := dial(t, s), dial(t, s)
	c2.do(t, "PING")
	c3.do(t, "PING")
	if got := width(); got != base+2 {
		t.Fatalf("engine_threads = %d with two more connections, want %d", got, base+2)
	}
	c2.nc.Close()
	waitParked(t, s, 1)
	dial(t, s).do(t, "PING")
	if got := width(); got != base+2 {
		t.Fatalf("engine_threads = %d after a re-lease, want %d", got, base+2)
	}
}

// TestServerContentionStats drives real traffic through a CMAdaptive
// server and checks the STATS surface: the policy line, the shard
// count, and the contention counters all appear.
func TestServerContentionStats(t *testing.T) {
	s := startServer(t, WithMaxConns(8), WithShards(4), WithContention(backoff.CMAdaptive), WithLockOSThread())
	c := dial(t, s)

	if r := c.do(t, "SET", "k", "1"); string(r.Str) != "OK" {
		t.Fatalf("SET → %+v", r)
	}
	for i := 0; i < 64; i++ {
		if r := c.do(t, "CAS", "k", "1", "1"); r.Kind != proto.KindInt {
			t.Fatalf("CAS → %+v", r)
		}
	}
	r := c.do(t, "STATS")
	if r.Kind != proto.KindBulk {
		t.Fatalf("STATS → %+v", r)
	}
	body := string(r.Str)
	if !strings.Contains(body, "cm_policy adaptive\n") {
		t.Fatalf("STATS missing cm_policy line:\n%s", body)
	}
	stats := parseStats(t, body)
	if stats["shards"] != 4 {
		t.Fatalf("STATS shards = %d, want 4", stats["shards"])
	}
	for _, k := range []string{"conflicts", "escalations", "serialized_ops", "cm_hot_shards", "cm_max_rate_pct", "affinity_swaps"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("STATS missing %q:\n%s", k, body)
		}
	}
}
