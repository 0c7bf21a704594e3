package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"spectm/internal/proto"
	"spectm/internal/wal"
)

// startPrimary runs a persistent server with a replication listener.
func startPrimary(t *testing.T) *Server {
	t.Helper()
	dir := t.TempDir()
	return startServer(t,
		WithPersistence(dir, wal.EveryN(8)),
		WithTopology(Topology{ReplListen: "127.0.0.1:0"}))
}

// startReplica runs a replica server tailing p's replication listener.
func startReplica(t *testing.T, p *Server, persistent bool) *Server {
	t.Helper()
	opts := []Option{WithTopology(Topology{Primary: p.ReplAddr().String()})}
	if persistent {
		opts = append(opts, WithPersistence(t.TempDir(), wal.EveryN(8)))
	}
	return startServer(t, opts...)
}

// replField digs one "name value" line out of a REPLSTATUS bulk.
func replField(t *testing.T, rep proto.Reply, name string) string {
	t.Helper()
	if rep.Kind != proto.KindBulk {
		t.Fatalf("REPLSTATUS reply kind %q", rep.Kind)
	}
	for _, ln := range strings.Split(string(rep.Str), "\n") {
		if rest, ok := strings.CutPrefix(ln, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("REPLSTATUS has no %q line in:\n%s", name, rep.Str)
	return ""
}

func TestServerReplicationEndToEnd(t *testing.T) {
	p := startPrimary(t)
	rep := startReplica(t, p, true)

	pc := dial(t, p)
	rc := dial(t, rep)

	// Roles visible on both sides.
	if got := replField(t, pc.do(t, "REPLSTATUS"), "role"); got != "primary" {
		t.Fatalf("primary role %q", got)
	}
	if got := replField(t, rc.do(t, "REPLSTATUS"), "role"); got != "replica" {
		t.Fatalf("replica role %q", got)
	}

	// Writes land on the primary; the read-your-writes gate makes them
	// visible on the replica.
	for i := 0; i < 200; i++ {
		if r := pc.do(t, "SET", fmt.Sprintf("key-%03d", i), strconv.Itoa(i)); string(r.Str) != "OK" {
			t.Fatalf("SET %d → %+v", i, r)
		}
	}
	pos := pc.do(t, "REPLPOS")
	if pos.Kind != proto.KindInt || pos.Int < 200 {
		t.Fatalf("REPLPOS → %+v, want ≥ 200", pos)
	}
	if r := rc.do(t, "WAITOFF", strconv.FormatInt(pos.Int, 10), "10000"); string(r.Str) != "OK" {
		t.Fatalf("WAITOFF → %+v", r)
	}
	for _, i := range []int{0, 17, 199} {
		if r := rc.do(t, "GET", fmt.Sprintf("key-%03d", i)); r.Kind != proto.KindInt || r.Int != int64(i) {
			t.Fatalf("replica GET key-%03d → %+v", i, r)
		}
	}

	// The replica refuses every mutation.
	for _, words := range [][]string{
		{"SET", "x", "1"}, {"DEL", "key-000"}, {"CAS", "key-000", "0", "1"},
		{"SWAP2", "key-000", "key-001"}, {"BGSAVE"},
	} {
		r := rc.do(t, words...)
		if r.Kind != proto.KindError || !strings.HasPrefix(string(r.Str), "READONLY") {
			t.Fatalf("replica %v → %+v, want -READONLY", words, r)
		}
	}
	// ... but reads, MGET and STATS still serve.
	if r := rc.do(t, "MGET", "key-000", "key-001"); r.Kind != proto.KindArray || r.Int != 2 {
		t.Fatalf("replica MGET → %+v", r)
	}
	var el proto.Reply
	for i := 0; i < 2; i++ {
		if err := rc.rd.ReadReply(&el); err != nil || el.Kind != proto.KindInt {
			t.Fatalf("replica MGET element %d → %+v (%v)", i, el, err)
		}
	}

	// Primary-side REPLSTATUS shows the link draining to zero lag.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := pc.do(t, "REPLSTATUS")
		if replField(t, st, "replicas") == "1" {
			if lag := replField(t, st, "position_records"); lag != "" {
				applied := replField(t, rc.do(t, "REPLSTATUS"), "applied_records")
				if lag == applied {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica lag never drained:\n%s", pc.do(t, "REPLSTATUS").Str)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// WAITOFF on the primary answers for its own position; a position in
	// the future errors rather than blocking.
	if r := pc.do(t, "WAITOFF", strconv.FormatInt(pos.Int, 10)); string(r.Str) != "OK" {
		t.Fatalf("primary WAITOFF → %+v", r)
	}
	if r := rc.do(t, "WAITOFF", "999999999", "50"); r.Kind != proto.KindError {
		t.Fatalf("replica WAITOFF(future) → %+v, want -WAITTIMEOUT", r)
	}
}

// TestServerReplListenRequiresPersistence pins the configuration error.
func TestServerReplListenRequiresPersistence(t *testing.T) {
	if _, err := New(WithTopology(Topology{ReplListen: "127.0.0.1:0"})); err == nil {
		t.Fatal("New accepted -repl-listen without -data-dir")
	}
}

// TestServerReplZeroAlloc pins the acceptance criterion at the serving
// layer: with persistence on, a replication listener up AND a live
// replica streaming, the primary's SET (update) / GET / CAS execution
// path stays at 0 allocs/op.
func TestServerReplZeroAlloc(t *testing.T) {
	p := startPrimary(t)
	rep := startReplica(t, p, false)

	// Seed through a real connection and wait until the replica
	// streams, so the measurement runs with the sender active.
	pc := dial(t, p)
	pc.do(t, "SET", "key-0001", "1")
	pos := pc.do(t, "REPLPOS")
	rc := dial(t, rep)
	if r := rc.do(t, "WAITOFF", strconv.FormatInt(pos.Int, 10), "10000"); string(r.Str) != "OK" {
		t.Fatalf("WAITOFF → %+v", r)
	}

	// In-process command frames against the primary, as in
	// TestPerCommandZeroAlloc: decode → transaction → encode with
	// reused buffers, io.Discard replies.
	th, ok := p.getThread()
	if !ok {
		t.Fatal("no thread")
	}
	defer p.putThread(th)
	c := &conn{s: p, th: th}
	var cmds bytes.Buffer
	enc := proto.NewWriter(&cmds)
	enc.Array(3)
	enc.Arg("SET")
	enc.Arg("key-0001")
	enc.ArgUint(1)
	enc.Array(2)
	enc.Arg("GET")
	enc.Arg("key-0001")
	enc.Array(4)
	enc.Arg("CAS")
	enc.Arg("key-0001")
	enc.ArgUint(1)
	enc.ArgUint(2)
	enc.Array(4)
	enc.Arg("CAS")
	enc.Arg("key-0001")
	enc.ArgUint(2)
	enc.ArgUint(1)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := cmds.Bytes()
	const cmdsPerFrame = 4
	src := bytes.NewReader(frame)
	c.rd = proto.NewReader(src)
	c.wr = proto.NewWriter(io.Discard)
	runFrame := func() {
		src.Reset(frame)
		c.rd.Reset(src)
		for i := 0; i < cmdsPerFrame; i++ {
			args, err := c.rd.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			c.execute(args)
		}
		if err := c.wr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		runFrame() // reach the steady state (log buffers at capacity)
	}
	allocs := testing.AllocsPerRun(300, runFrame)
	if perCmd := allocs / cmdsPerFrame; perCmd != 0 {
		t.Fatalf("replicated GET/SET/CAS execution allocates %.3f allocs/op, want 0", perCmd)
	}
}
