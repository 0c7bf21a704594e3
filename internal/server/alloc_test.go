package server

import (
	"bytes"
	"io"
	"testing"
)

// TestPerCommandZeroAlloc pins the acceptance criterion: executing a
// steady-state pipeline — the full decode → short transaction → encode
// path through reused connection buffers, driven by the loop step
// serveConn runs — performs zero heap allocations per command. Two
// frames: GET / SET (existing key) / CAS and a run of eight GETs, and a
// 16-command mix of every single- and two-key command shape.
func TestPerCommandZeroAlloc(t *testing.T) {
	s, err := New(WithMaxConns(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := testConn(t, s, io.Discard)

	// SET hits the update path (the key is inserted by the warm-up
	// run), both CAS transitions succeed, and the frame ends back at
	// value 1 so every run is identical. The eight GETs behind the
	// CASes are answered by one GetEach.
	getRun := [][]string{
		{"SET", "key-0001", "1"},
		{"GET", "key-0001"},
		{"CAS", "key-0001", "1", "2"},
		{"CAS", "key-0001", "2", "1"},
	}
	for i := 0; i < 8; i++ {
		getRun = append(getRun, []string{"GET", []string{"key-0001", "missing"}[i%2]})
	}
	// Every write is undone within the frame (two swaps, a CAS there and
	// back), so every run after the warm-up's inserts is identical.
	mixed := [][]string{
		{"SET", "key-0001", "1"}, {"SET", "key-0002", "2"},
		{"GET", "key-0001"}, {"GET", "key-0002"},
		{"CAS", "key-0001", "1", "3"}, {"SWAP2", "key-0001", "key-0002"},
		{"MGET", "key-0001", "key-0002"}, {"SWAP2", "key-0001", "key-0002"},
		{"CAS", "key-0001", "3", "1"}, {"DEL", "missing"},
		{"GET", "missing"}, {"MGET", "key-0002"},
		{"PING"}, {"SET", "key-0002", "2"},
		{"GET", "key-0001"}, {"GET", "key-0002"},
	}
	for _, tc := range []struct {
		name string
		cmds [][]string
	}{{"GET/SET/CAS/GET-run", getRun}, {"16-command mix", mixed}} {
		frame := encodeCmds(t, tc.cmds)
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
		if perCmd := allocs / float64(len(tc.cmds)); perCmd != 0 {
			t.Fatalf("%s execution allocates %.2f allocs/op, want 0", tc.name, perCmd)
		}
	}
}
