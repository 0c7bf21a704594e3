package server

import (
	"bytes"
	"io"
	"testing"

	"spectm/internal/proto"
)

// TestPerCommandZeroAlloc pins the acceptance criterion: executing a
// steady-state pipeline of GET / SET (existing key) / CAS — the full
// decode → short transaction → encode path through reused connection
// buffers — performs zero heap allocations per command.
func TestPerCommandZeroAlloc(t *testing.T) {
	s, err := New(WithMaxConns(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, ok := s.getThread()
	if !ok {
		t.Fatalf("no thread")
	}
	c := &conn{s: s, th: th}

	// Build one pipelined frame. SET hits the update path (the key is
	// inserted by the warm-up run), both CAS transitions succeed, and
	// the frame ends back at value 1 so every run is identical.
	var cmds bytes.Buffer
	enc := proto.NewWriter(&cmds)
	set := func(k string, v uint64) {
		enc.Array(3)
		enc.Arg("SET")
		enc.Arg(k)
		enc.ArgUint(v)
	}
	set("key-0001", 1)
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
		t.Fatalf("build frame: %v", err)
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
			t.Fatalf("Flush: %v", err)
		}
	}

	allocs := testing.AllocsPerRun(300, runFrame)
	if perCmd := allocs / cmdsPerFrame; perCmd != 0 {
		t.Fatalf("GET/SET/CAS execution allocates %.2f allocs/op, want 0", perCmd)
	}
}
