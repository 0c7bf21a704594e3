package server

import (
	"bytes"
	"io"
	"testing"
)

// TestPerCommandZeroAlloc pins the acceptance criterion: executing a
// steady-state pipeline of GET / SET (existing key) / CAS and a run of
// eight GETs — the full decode → short transaction → encode path
// through reused connection buffers, driven by the loop step serveConn
// runs — performs zero heap allocations per command.
func TestPerCommandZeroAlloc(t *testing.T) {
	s, err := New(WithMaxConns(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := testConn(t, s, io.Discard)

	// One pipelined frame. SET hits the update path (the key is
	// inserted by the warm-up run), both CAS transitions succeed, and
	// the frame ends back at value 1 so every run is identical. The
	// eight GETs behind the CASes form one GET run (getRun).
	cmds := [][]string{
		{"SET", "key-0001", "1"},
		{"GET", "key-0001"},
		{"CAS", "key-0001", "1", "2"},
		{"CAS", "key-0001", "2", "1"},
	}
	for i := 0; i < 8; i++ {
		cmds = append(cmds, []string{"GET", []string{"key-0001", "missing"}[i%2]})
	}
	frame := encodeCmds(t, cmds)
	src := bytes.NewReader(frame)

	runFrame := func() {
		src.Reset(frame)
		c.rd.Reset(src)
		var err error
		for err == nil {
			err = c.step()
		}
		if err != io.EOF {
			t.Fatalf("step: %v", err)
		}
		if err := c.wr.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}

	allocs := testing.AllocsPerRun(300, runFrame)
	if perCmd := allocs / float64(len(cmds)); perCmd != 0 {
		t.Fatalf("GET/SET/CAS/GET-run execution allocates %.2f allocs/op, want 0", perCmd)
	}
}
