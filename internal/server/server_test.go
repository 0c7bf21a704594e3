package server

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spectm/internal/harness"
	"spectm/internal/proto"
)

// startServer runs a server on a random loopback port and tears it down
// with the test.
func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s
}

// client is a minimal synchronous test client.
type client struct {
	nc net.Conn
	rd *proto.Reader
	wr *proto.Writer
}

func dial(t *testing.T, s *Server) *client {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, rd: proto.NewReader(nc), wr: proto.NewWriter(nc)}
}

// do round-trips one command given as inline words.
func (c *client) do(t *testing.T, words ...string) proto.Reply {
	t.Helper()
	c.wr.Array(len(words))
	for _, w := range words {
		c.wr.Arg(w)
	}
	if err := c.wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var rep proto.Reply
	if err := c.rd.ReadReply(&rep); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return rep
}

func TestCommands(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s)

	if r := c.do(t, "PING"); string(r.Str) != "PONG" {
		t.Fatalf("PING → %q", r.Str)
	}
	if r := c.do(t, "GET", "k"); !(r.Kind == proto.KindBulk && r.Null) {
		t.Fatalf("GET absent → %+v, want null", r)
	}
	if r := c.do(t, "SET", "k", "41"); string(r.Str) != "OK" {
		t.Fatalf("SET → %+v", r)
	}
	if r := c.do(t, "GET", "k"); r.Kind != proto.KindInt || r.Int != 41 {
		t.Fatalf("GET → %+v, want :41", r)
	}
	if r := c.do(t, "SET", "k", "42"); string(r.Str) != "OK" { // update path
		t.Fatalf("SET update → %+v", r)
	}
	if r := c.do(t, "CAS", "k", "42", "43"); r.Int != 1 {
		t.Fatalf("CAS matching → %+v", r)
	}
	if r := c.do(t, "CAS", "k", "42", "44"); r.Int != 0 {
		t.Fatalf("CAS stale → %+v", r)
	}
	if r := c.do(t, "SET", "j", "7"); string(r.Str) != "OK" {
		t.Fatalf("SET j → %+v", r)
	}
	if r := c.do(t, "SWAP2", "k", "j"); r.Int != 1 {
		t.Fatalf("SWAP2 → %+v", r)
	}
	if r := c.do(t, "GET", "k"); r.Int != 7 {
		t.Fatalf("GET k after SWAP2 → %+v, want :7", r)
	}
	if r := c.do(t, "SWAP2", "k", "missing"); r.Int != 0 {
		t.Fatalf("SWAP2 missing → %+v", r)
	}
	if r := c.do(t, "DEL", "j"); r.Int != 1 {
		t.Fatalf("DEL → %+v", r)
	}
	if r := c.do(t, "DEL", "j"); r.Int != 0 {
		t.Fatalf("DEL absent → %+v", r)
	}

	// MGET: 2-key short path and 3-key full-transaction path.
	c.do(t, "SET", "a", "1")
	c.do(t, "SET", "b", "2")
	for _, keys := range [][]string{{"a", "b"}, {"a", "nope", "b"}} {
		r := c.do(t, append([]string{"MGET"}, keys...)...)
		if r.Kind != proto.KindArray || r.Int != int64(len(keys)) {
			t.Fatalf("MGET header → %+v", r)
		}
		for _, k := range keys {
			var rep proto.Reply
			if err := c.rd.ReadReply(&rep); err != nil {
				t.Fatalf("MGET element: %v", err)
			}
			if k == "nope" {
				if !rep.Null {
					t.Fatalf("MGET %s → %+v, want null", k, rep)
				}
			} else if rep.Kind != proto.KindInt {
				t.Fatalf("MGET %s → %+v, want int", k, rep)
			}
		}
	}

	// Errors keep the connection usable.
	if r := c.do(t, "NOPE"); r.Kind != proto.KindError {
		t.Fatalf("unknown command → %+v", r)
	}
	if r := c.do(t, "SET", "k"); r.Kind != proto.KindError {
		t.Fatalf("arity error → %+v", r)
	}
	if r := c.do(t, "SET", "k", "not-a-number"); r.Kind != proto.KindError {
		t.Fatalf("value error → %+v", r)
	}
	if r := c.do(t, "PING"); string(r.Str) != "PONG" {
		t.Fatalf("connection dead after errors: %+v", r)
	}

	// STATS reflects the traffic above.
	r := c.do(t, "STATS")
	if r.Kind != proto.KindBulk {
		t.Fatalf("STATS → %+v", r)
	}
	stats := parseStats(t, string(r.Str))
	if stats["cas"] != 2 || stats["cas_hits"] != 1 {
		t.Errorf("STATS cas=%d cas_hits=%d, want 2,1", stats["cas"], stats["cas_hits"])
	}
	if stats["swap2"] != 2 || stats["swap2_hits"] != 1 {
		t.Errorf("STATS swap2=%d swap2_hits=%d, want 2,1", stats["swap2"], stats["swap2_hits"])
	}
	if stats["mgets"] != 2 || stats["mget_keys"] != 5 {
		t.Errorf("STATS mgets=%d mget_keys=%d, want 2,5", stats["mgets"], stats["mget_keys"])
	}
	if stats["conns"] != 1 || stats["accepted"] != 1 {
		t.Errorf("STATS conns=%d accepted=%d, want 1,1", stats["conns"], stats["accepted"])
	}
	if _, ok := stats["conflicts"]; !ok || stats["shards"] != 4 {
		t.Errorf("STATS shards=%d (want 4), conflicts present %v", stats["shards"], ok)
	}
}

func parseStats(t *testing.T, s string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		name, num, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad stats line %q", line)
		}
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			t.Fatalf("bad stats value in %q", line)
		}
		out[name] = v
	}
	return out
}

// TestEndToEndLoad drives the server with the closed-loop pipelined
// load generator: ≥3 connections, pipeline depth ≥8, every command
// exercised, zero errors, and the server's counters account for it.
func TestEndToEndLoad(t *testing.T) {
	s := startServer(t, WithMaxConns(16))
	res, err := harness.RunNet(harness.NetWorkload{
		Addr:     s.Addr().String(),
		Conns:    4,
		Pipeline: 16,
		Keys:     512,
		Duration: 300 * time.Millisecond,
		Dist:     "zipf",
	})
	if err != nil {
		t.Fatalf("RunNet: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("load run saw %d errors", res.Errors)
	}
	if res.Ops == 0 || res.Gets == 0 || res.Sets == 0 || res.Dels == 0 ||
		res.CASes == 0 || res.Swaps == 0 || res.MGets == 0 {
		t.Fatalf("not every command exercised: %+v", res)
	}
	st := s.Map().OpStats()
	if st.Gets < res.Gets {
		t.Errorf("server counted %d gets, client sent %d", st.Gets, res.Gets)
	}
	if st.CAS < res.CASes || st.Swaps < res.Swaps || st.Batches < res.MGets {
		t.Errorf("server counters behind client: server %+v client %+v", st, res)
	}
	// Updates+inserts together account for every SET.
	if st.Updates < res.Sets {
		t.Errorf("server counted %d update attempts, client sent %d SETs", st.Updates, res.Sets)
	}
}

// TestCASLinearizable hammers one key with concurrent CAS increments:
// the number of successful CAS replies must equal the final value,
// i.e. every success was a real, exclusive transition.
func TestCASLinearizable(t *testing.T) {
	s := startServer(t, WithMaxConns(16))
	init := dial(t, s)
	init.do(t, "SET", "ctr", "0")

	const workers = 8
	const attempts = 400
	var wins [workers]uint64
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer nc.Close()
			rd, wr := proto.NewReader(nc), proto.NewWriter(nc)
			var rep proto.Reply
			cur := uint64(0)
			for i := 0; i < attempts; i++ {
				// Read the current value, then try to bump it by one.
				wr.Array(2)
				wr.Arg("GET")
				wr.Arg("ctr")
				wr.Flush()
				if err := rd.ReadReply(&rep); err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				cur = uint64(rep.Int)
				wr.Array(4)
				wr.Arg("CAS")
				wr.Arg("ctr")
				wr.ArgUint(cur)
				wr.ArgUint(cur + 1)
				wr.Flush()
				if err := rd.ReadReply(&rep); err != nil {
					t.Errorf("CAS: %v", err)
					return
				}
				if rep.Int == 1 {
					wins[id]++
				}
			}
		}(wkr)
	}
	wg.Wait()
	var total uint64
	for _, w := range wins {
		total += w
	}
	final := dial(t, s)
	r := final.do(t, "GET", "ctr")
	if uint64(r.Int) != total {
		t.Fatalf("final value %d but %d CAS successes — lost or phantom updates", r.Int, total)
	}
}

// TestShutdownDrainsPipeline sends a deep pipeline and immediately
// initiates shutdown: every command already on the wire must still be
// answered before the connection closes.
func TestShutdownDrainsPipeline(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	rd, wr := proto.NewReader(nc), proto.NewWriter(nc)

	const depth = 64
	for i := 0; i < depth; i++ {
		wr.Array(3)
		wr.Arg("SET")
		wr.Arg(fmt.Sprintf("k%03d", i))
		wr.ArgUint(uint64(i))
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Wait until the server has executed the whole pipeline (the replies
	// may still be buffered), then shut down: the drain must flush every
	// pending reply before closing.
	deadline := time.Now().Add(5 * time.Second)
	for s.Map().Len() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("server executed only %d/%d commands", s.Map().Len(), depth)
		}
		time.Sleep(time.Millisecond)
	}
	shut := make(chan struct{})
	go func() { s.Shutdown(); close(shut) }()

	var rep proto.Reply
	got := 0
	for got < depth {
		if err := rd.ReadReply(&rep); err != nil {
			t.Fatalf("after %d/%d replies: %v", got, depth, err)
		}
		if rep.Kind != proto.KindSimple {
			t.Fatalf("reply %d: %+v", got, rep)
		}
		got++
	}
	// After the drain the server closes the connection.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := rd.ReadReply(&rep); err == nil {
		t.Fatalf("connection still serving after shutdown: %+v", rep)
	}
	<-shut
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// All 64 writes took effect before the drain.
	if n := s.Map().Len(); n != depth {
		t.Fatalf("map has %d keys after drain, want %d", n, depth)
	}
}

// TestMaxConns verifies the connection cap is enforced with an error
// reply rather than a silent close.
func TestMaxConns(t *testing.T) {
	s := startServer(t, WithMaxConns(1))
	c1 := dial(t, s)
	if r := c1.do(t, "PING"); string(r.Str) != "PONG" {
		t.Fatalf("first conn refused: %+v", r)
	}
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	rd := proto.NewReader(nc)
	var rep proto.Reply
	if err := rd.ReadReply(&rep); err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	if rep.Kind != proto.KindError {
		t.Fatalf("second conn got %+v, want error", rep)
	}
}
