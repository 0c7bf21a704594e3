package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"
)

// runPipeline is TestRunOrder's pipeline, one command per entry. Its
// first run is firstRun commands long (the 8-key MGET behind them is
// too wide for a run and ends it) and touches firstRunKeys.
func runPipeline() [][]string {
	cmds := [][]string{
		{"SET", "a", "1"}, {"SET", "a", "2"}, {"GET", "a"}, {"SET", "b", "3"},
		{"DEL", "b"}, {"DEL", "b"}, {"CAS", "a", "2", "5"}, {"CAS", "a", "9", "9"},
		{"SET", "c", "7"}, {"SWAP2", "a", "c"}, {"MGET", "a", "c"}, {"GET", "c"},
		{"MGET", "a", "b", "c", "d", "e", "f", "g", "h"},
		{"SCAN", "", "", "0"}, {"GET", "a", "b"}, {"NOSUCHCMD", "x"}, {"PING"},
	}
	keys := []string{"a", "b", "c", "k0", "k1", "k2"}
	for i := 0; i < 100; i++ {
		k, k2 := keys[i%len(keys)], keys[(i+1)%len(keys)]
		v := strconv.Itoa(i)
		switch i % 9 {
		case 0, 1:
			cmds = append(cmds, []string{"SET", k, v})
		case 2:
			cmds = append(cmds, []string{"DEL", k})
		case 3:
			cmds = append(cmds, []string{"CAS", k, strconv.Itoa(i - 1), v})
		case 4:
			cmds = append(cmds, []string{"SWAP2", k, k2})
		case 5:
			cmds = append(cmds, []string{"MGET", k, k2})
		case 6:
			cmds = append(cmds, []string{"SCAN", "b", "k1", "2"})
		default:
			cmds = append(cmds, []string{"GET", k})
		}
	}
	return append(cmds, []string{"PING"})
}

const firstRun = 12

var firstRunKeys = []string{"a", "a", "a", "b", "b", "b", "a", "a", "c", "a", "c", "a", "c", "c"}

// oneAtATime returns the replies of executing cmds one by one on a
// fresh server.
func oneAtATime(t *testing.T, cmds [][]string) []byte {
	t.Helper()
	ref, err := New()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	c := testConn(t, ref, &want)
	for _, words := range cmds {
		args := make([][]byte, len(words))
		for i, w := range words {
			args[i] = []byte(w)
		}
		c.execute(args)
	}
	if err := c.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// TestRunOrder pipelines a mix of every command shape — SET insert and
// update, GET, DEL, CAS, SWAP2, 2- and 8-key MGET, SCAN, a wrong-arity
// command, an unknown command, PING — with 100 mixed commands behind
// them, in one frame, through step on an in-memory stream and through a
// real connection. The replies must be byte-identical to executing the
// same commands one at a time. On the in-memory stream the first run
// must touch its keys before it executes any of its commands: the map
// is still empty when the touch starts.
func TestRunOrder(t *testing.T) {
	cmds := runPipeline()
	want := oneAtATime(t, cmds)
	frame := encodeCmds(t, cmds)

	t.Run("step", func(t *testing.T) {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		c := testConn(t, s, &got)
		c.rd.Reset(bytes.NewReader(frame))
		var touches [][]string
		var lens []int
		runTouchHook = func(c *conn, keys []string) {
			touches = append(touches, append([]string(nil), keys...))
			lens = append(lens, c.s.m.Len())
		}
		defer func() { runTouchHook = nil }()
		for err == nil {
			err = c.step()
		}
		runTouchHook = nil
		if err != io.EOF {
			t.Fatalf("step: %v", err)
		}
		if err := c.wr.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("run replies differ from one-at-a-time execution:\n got %q\nwant %q", got.Bytes(), want)
		}
		if len(touches) == 0 || fmt.Sprint(touches[0]) != fmt.Sprint(firstRunKeys) {
			t.Fatalf("first run touched %v, want %v (its first %d commands' keys)", touches, firstRunKeys, firstRun)
		}
		if lens[0] != 0 {
			t.Fatalf("the map held %d keys when the first run touched: the run executed before its touch", lens[0])
		}
	})

	t.Run("conn", func(t *testing.T) {
		s := startServer(t)
		nc := dial(t, s).nc
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(nc, got); err != nil {
			t.Fatalf("reading %d reply bytes: %v (got %q)", len(want), err, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pipelined replies differ from one-at-a-time execution:\n got %q\nwant %q", got, want)
		}
	})
}
