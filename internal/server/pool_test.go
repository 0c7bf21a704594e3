package server

import (
	"testing"
	"time"

	"spectm/internal/harness"
	"spectm/internal/proto"
	"spectm/internal/shardmap"
)

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

// TestThreadPoolReuse pins the pool's contract: sequential connections
// re-lease one parked descriptor instead of registering more, a
// connection beyond maxconns is refused with an error reply, and a
// drained server has every descriptor parked exactly once.
func TestThreadPoolReuse(t *testing.T) {
	const maxConns = 4
	s := startServer(t, WithMaxConns(maxConns))
	threads := func(c *client) uint64 {
		t.Helper()
		return parseStats(t, string(c.do(t, "STATS").Str))["engine_threads"]
	}
	var first uint64
	for i := 0; i < 3*maxConns; i++ {
		c := dial(t, s)
		got := threads(c)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("connection %d: engine_threads = %d, %d after the first", i, got, first)
		}
		c.nc.Close()
		waitParked(t, s, 1)
	}

	conns := make([]*client, maxConns)
	for i := range conns {
		conns[i] = dial(t, s)
		conns[i].do(t, "PING")
	}
	over := dial(t, s)
	var rep proto.Reply
	if err := over.rd.ReadReply(&rep); err != nil || rep.Kind != proto.KindError ||
		string(rep.Str) != "ERR max connections reached" {
		t.Fatalf("connection %d got %+v (err %v), want -ERR max connections reached", maxConns+1, rep, err)
	}
	if got := s.refused.Load(); got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}
	for _, c := range conns {
		c.nc.Close()
	}
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
