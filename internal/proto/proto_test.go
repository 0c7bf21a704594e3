package proto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// oneByteReader feeds the underlying reader one byte at a time, forcing
// every incomplete-frame resume path.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func args(t *testing.T, rd *Reader) []string {
	t.Helper()
	a, err := rd.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	out := make([]string, len(a))
	for i, b := range a {
		out[i] = string(b)
	}
	return out
}

func TestCommandParsing(t *testing.T) {
	in := "*3\r\n$3\r\nSET\r\n$5\r\nkey-1\r\n$2\r\n42\r\n" + // RESP array
		"GET key-1\r\n" + // inline
		"\r\n" + // blank inline → zero args
		"  DEL\tkey-2  \r\n" + // inline with extra whitespace
		"*1\r\n$5\r\nSTATS\r\n" +
		"*2\r\n$4\r\nMGET\r\n$0\r\n\r\n" // empty bulk argument
	for _, wrap := range []func(io.Reader) io.Reader{
		func(r io.Reader) io.Reader { return r },
		func(r io.Reader) io.Reader { return oneByteReader{r} },
	} {
		rd := NewReader(wrap(strings.NewReader(in)))
		want := [][]string{
			{"SET", "key-1", "42"},
			{"GET", "key-1"},
			{},
			{"DEL", "key-2"},
			{"STATS"},
			{"MGET", ""},
		}
		for i, w := range want {
			got := args(t, rd)
			if len(got) != len(w) {
				t.Fatalf("cmd %d: got %q want %q", i, got, w)
			}
			for j := range w {
				if got[j] != w[j] {
					t.Fatalf("cmd %d arg %d: got %q want %q", i, j, got[j], w[j])
				}
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	cases := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n", // non-bulk inside array
		"*-1\r\n",                   // negative argc
		"*1\r\n$-2\r\n",             // negative bulk length
		"*1\r\n$3\r\nGETxx",         // missing bulk terminator
		"*1\r\n$abc\r\n",            // non-numeric length
		"*999999\r\n",               // argc over MaxArgs
	}
	for _, in := range cases {
		rd := NewReader(strings.NewReader(in))
		if _, err := rd.Next(); !errors.Is(err, ErrProtocol) {
			t.Errorf("input %q: want ErrProtocol, got %v", in, err)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.SimpleString("OK")
	w.Error("ERR boom")
	w.Int(-7)
	w.Uint(12345)
	w.Null()
	w.Bulk([]byte("hello"))
	w.Array(2)
	w.Uint(1)
	w.Null()
	w.BulkString("")
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	rd := NewReader(oneByteReader{&net})
	var rep Reply
	step := func(wantKind byte) Reply {
		t.Helper()
		if err := rd.ReadReply(&rep); err != nil {
			t.Fatalf("ReadReply: %v", err)
		}
		if rep.Kind != wantKind {
			t.Fatalf("kind %q want %q", rep.Kind, wantKind)
		}
		return rep
	}
	if r := step(KindSimple); string(r.Str) != "OK" {
		t.Fatalf("simple %q", r.Str)
	}
	if r := step(KindError); string(r.Str) != "ERR boom" {
		t.Fatalf("error %q", r.Str)
	}
	if r := step(KindInt); r.Int != -7 {
		t.Fatalf("int %d", r.Int)
	}
	if r := step(KindInt); r.Int != 12345 {
		t.Fatalf("int %d", r.Int)
	}
	if r := step(KindBulk); !r.Null {
		t.Fatalf("want null")
	}
	if r := step(KindBulk); string(r.Str) != "hello" {
		t.Fatalf("bulk %q", r.Str)
	}
	if r := step(KindArray); r.Int != 2 {
		t.Fatalf("array %d", r.Int)
	}
	step(KindInt)
	if r := step(KindBulk); !r.Null {
		t.Fatalf("want null element")
	}
	if r := step(KindBulk); len(r.Str) != 0 || r.Null {
		t.Fatalf("want empty bulk, got %+v", r)
	}
}

// onceReader hands over its bytes in one Read and fails the test on any
// later Read.
type onceReader struct {
	t    *testing.T
	data []byte
}

func (o *onceReader) Read(p []byte) (int, error) {
	if o.data == nil {
		o.t.Fatalf("NextBuffered read from the stream")
	}
	n := copy(p, o.data)
	o.data = nil
	return n, nil
}

// TestNextBufferedNeverReads: NextBuffered hands out only commands that
// are already buffered, never reads, and never moves the window, so a
// partial frame leaves the input as it was and views handed out
// earlier keep their bytes.
func TestNextBufferedNeverReads(t *testing.T) {
	in := "GET a\r\n*2\r\n$3\r\nGET\r\n$2\r\nbb\r\n*2\r\n$3\r\nGET\r\n$3\r\ncc"
	rd := NewReader(&onceReader{t: t, data: []byte(in)})
	first, err := rd.Next()
	if err != nil || len(first) != 2 {
		t.Fatalf("Next = %q, %v", first, err)
	}
	a := first[1]
	second, ok := rd.NextBuffered()
	if !ok || len(second) != 2 || string(second[1]) != "bb" {
		t.Fatalf("NextBuffered = %q, %v; want GET bb", second, ok)
	}
	b := second[1]
	r, w := rd.r, rd.w
	window := string(rd.buf[r:w])
	for i := 0; i < 2; i++ {
		if got, ok := rd.NextBuffered(); ok {
			t.Fatalf("NextBuffered on a partial frame = %q, true", got)
		}
	}
	if rd.r != r || rd.w != w || string(rd.buf[r:w]) != window {
		t.Fatalf("partial frame moved the window: [%d:%d] %q, was [%d:%d] %q", rd.r, rd.w, rd.buf[rd.r:rd.w], r, w, window)
	}
	if string(a) != "a" || string(b) != "bb" {
		t.Fatalf("earlier views changed: %q, %q", a, b)
	}
}

func TestOnFillFlushHook(t *testing.T) {
	// A server-shaped loop: the reader's fill hook flushes the writer,
	// so a blocked read never strands buffered replies.
	var flushed bytes.Buffer
	w := NewWriter(&flushed)
	w.SimpleString("PONG")
	rd := NewReader(strings.NewReader("PING\r\n"))
	rd.OnFill = w.Flush
	if _, err := rd.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if flushed.Len() == 0 {
		t.Fatalf("OnFill did not flush pending replies")
	}
}

func TestCommandWriting(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Array(3)
	w.Arg("SET")
	w.ArgBytes([]byte("k"))
	w.ArgUint(99)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\n99\r\n"
	if net.String() != want {
		t.Fatalf("wire %q want %q", net.String(), want)
	}
}

func TestCodecZeroAlloc(t *testing.T) {
	// One pipelined GET+SET exchange, decoded and re-encoded from
	// steady-state buffers, must not allocate.
	frame := []byte("*2\r\n$3\r\nGET\r\n$5\r\nkey-1\r\n*3\r\n$3\r\nSET\r\n$5\r\nkey-1\r\n$2\r\n42\r\n")
	src := bytes.NewReader(frame)
	rd := NewReader(src)
	w := NewWriter(io.Discard)
	n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		rd.Reset(src)
		for i := 0; i < 2; i++ {
			if _, err := rd.Next(); err != nil {
				t.Fatalf("Next: %v", err)
			}
		}
		w.Uint(7)
		w.SimpleString("OK")
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	})
	if n != 0 {
		t.Fatalf("codec allocates %.1f allocs/op, want 0", n)
	}
}
