package proto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReaderNext feeds arbitrary bytes to the command parser. Malformed
// frames must produce errors, never panics; every command the parser
// accepts must survive a re-encode → re-parse round trip through the
// Writer (the framing the server's replies and the load generator's
// requests rely on).
func FuzzReaderNext(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\n42\r\n"))
	f.Add([]byte("*4\r\n$3\r\nCAS\r\n$1\r\nk\r\n$1\r\n1\r\n$1\r\n2\r\n"))
	f.Add([]byte("GET k\r\nSET k 42\r\nPING\r\n"))
	f.Add([]byte("MGET a b c\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("*1\r\n$-5\r\nx"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add(bytes.Repeat([]byte{0xff}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			args, err := rd.Next()
			if err != nil {
				return // EOF or a detected protocol error — both fine
			}
			// Round trip: encode the parsed command as an array of bulk
			// strings and re-parse it.
			var out bytes.Buffer
			w := NewWriter(&out)
			w.Array(len(args))
			for _, a := range args {
				w.ArgBytes(a)
			}
			// Copy before Flush: args alias rd's buffer, which the next
			// Next() call may move, and the re-parse below must compare
			// against stable bytes.
			want := make([][]byte, len(args))
			for i, a := range args {
				want[i] = bytes.Clone(a)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			rd2 := NewReader(bytes.NewReader(out.Bytes()))
			got, err := rd2.Next()
			if err != nil {
				t.Fatalf("re-parse of %q: %v", out.Bytes(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("round trip: %d args, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("round trip arg %d: %q, want %q", i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzReadReply feeds arbitrary bytes to the reply parser (the load
// generator's half): errors, never panics, and accepted replies must
// respect the frame invariants.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR unknown command 'FOO'\r\n"))
	f.Add([]byte(":42\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("*3\r\n:1\r\n:2\r\n$-1\r\n"))
	f.Add([]byte("$-2\r\n"))
	f.Add([]byte(":99999999999999999999999999\r\n"))
	f.Add(bytes.Repeat([]byte{0xfe}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewReader(bytes.NewReader(data))
		var rep Reply
		for i := 0; i < 64; i++ {
			if err := rd.ReadReply(&rep); err != nil {
				return
			}
			switch rep.Kind {
			case KindSimple, KindError, KindInt, KindBulk, KindArray:
			default:
				t.Fatalf("accepted reply with kind %q", rep.Kind)
			}
			if rep.Kind == KindBulk && !rep.Null && int64(len(rep.Str)) > MaxBulk {
				t.Fatalf("bulk of %d bytes escaped MaxBulk", len(rep.Str))
			}
			if rep.Kind == KindArray && (rep.Int < 0 || rep.Int > MaxArray) {
				t.Fatalf("array header %d escaped MaxArray", rep.Int)
			}
		}
	})
}

// FuzzWriterReader round-trips writer-produced reply frames through the
// reader with arbitrary payloads.
func FuzzWriterReader(f *testing.F) {
	f.Add("status", int64(7), []byte("payload"))
	f.Add("", int64(-3), []byte{})
	f.Fuzz(func(t *testing.T, s string, n int64, b []byte) {
		if len(s) > 1024 || len(b) > MaxBulk {
			return
		}
		for _, c := range []byte(s) {
			if c == '\r' || c == '\n' {
				return // simple strings are line-framed by contract
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SimpleString(s)
		w.Int(n)
		w.Bulk(b)
		w.Null()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rd := NewReader(bytes.NewReader(buf.Bytes()))
		var rep Reply
		if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindSimple || string(rep.Str) != s {
			t.Fatalf("simple string round trip: %+v %v", rep, err)
		}
		if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindInt || rep.Int != n {
			t.Fatalf("int round trip: %+v %v", rep, err)
		}
		if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindBulk || !bytes.Equal(rep.Str, b) {
			t.Fatalf("bulk round trip: %+v %v", rep, err)
		}
		if err := rd.ReadReply(&rep); err != nil || !rep.Null {
			t.Fatalf("null round trip: %+v %v", rep, err)
		}
		if err := rd.ReadReply(&rep); err != io.EOF {
			t.Fatalf("trailing data after frames: %v", err)
		}
	})
}

// FuzzScanReply round-trips SCAN-shaped reply frames — a flat
// array of alternating key bulks and value ints — through the writer
// and reader, with arbitrary (including binary) keys and full-range
// values. This is the exact encoding the server's SCAN command emits
// and the client and load generator decode.
func FuzzScanReply(f *testing.F) {
	f.Add([]byte("k01"), uint64(1), []byte("k02"), uint64(2))
	f.Add([]byte(""), uint64(0), []byte("\x00binary\xff"), uint64(1)<<62-1)
	f.Fuzz(func(t *testing.T, k1 []byte, v1 uint64, k2 []byte, v2 uint64) {
		if len(k1) > MaxBulk || len(k2) > MaxBulk {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Array(4)
		w.Bulk(k1)
		w.Uint(v1)
		w.Bulk(k2)
		w.Uint(v2)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rd := NewReader(bytes.NewReader(buf.Bytes()))
		var rep Reply
		if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindArray || rep.Int != 4 {
			t.Fatalf("scan header round trip: %+v %v", rep, err)
		}
		for i, want := range []struct {
			key []byte
			val uint64
		}{{k1, v1}, {k2, v2}} {
			if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindBulk || rep.Null || !bytes.Equal(rep.Str, want.key) {
				t.Fatalf("scan key %d round trip: %+v %v", i, rep, err)
			}
			if err := rd.ReadReply(&rep); err != nil || rep.Kind != KindInt || uint64(rep.Int) != want.val {
				t.Fatalf("scan value %d round trip: %+v %v", i, rep, err)
			}
		}
		if err := rd.ReadReply(&rep); err != io.EOF {
			t.Fatalf("trailing data after scan reply: %v", err)
		}
	})
}
