package server

import (
	"bytes"
	"io"
	"strconv"
	"testing"
	"time"

	"spectm/internal/proto"
)

// getRunPipeline is TestGetRunOrder's pipeline, one command per entry.
func getRunPipeline() [][]string {
	cmds := [][]string{
		{"SET", "a", "1"}, {"SET", "b", "1"}, {"SET", "k1", "5"}, {"SET", "k3", "7"},
		{"GET", "a"}, {"GET", "b"}, {"SET", "a", "2"}, {"GET", "a"},
		{"GET", "missing"}, {"GET", "a", "b"}, {"DEL", "b"}, {"GET", "b"},
	}
	for i := 0; i < 100; i++ {
		cmds = append(cmds, []string{"GET", []string{"a", "b", "missing", "k" + strconv.Itoa(i%7)}[i%4]})
	}
	return append(cmds, []string{"PING"})
}

// encodeCmds renders commands as one pipelined frame.
func encodeCmds(t *testing.T, cmds [][]string) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := proto.NewWriter(&b)
	for _, words := range cmds {
		enc.Array(len(words))
		for _, w := range words {
			enc.Arg(w)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// testConn attaches a connection of s to an in-memory reader and
// writer, for driving its loop step or execute without a socket.
func testConn(t *testing.T, s *Server, out io.Writer) *conn {
	t.Helper()
	th, ok := s.getThread()
	if !ok {
		t.Fatal("no thread")
	}
	return &conn{s: s, th: th, rd: proto.NewReader(bytes.NewReader(nil)), wr: proto.NewWriter(out)}
}

// TestGetRunOrder pipelines GETs, in runs, around SET, DEL, a missing
// key, a wrong-arity GET, a run longer than the cap and a PING, through
// a real connection in one write. The replies must be byte-identical to
// executing the same commands one at a time.
func TestGetRunOrder(t *testing.T) {
	cmds := getRunPipeline()

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

	s := startServer(t)
	nc := dial(t, s).nc
	if _, err := nc.Write(encodeCmds(t, cmds)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("reading %d reply bytes: %v (got %q)", want.Len(), err, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("pipelined replies differ from one-at-a-time execution:\n got %q\nwant %q", got, want.Bytes())
	}
}
