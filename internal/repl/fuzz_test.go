// Fuzzers for the replication protocol surface: the sync-handshake
// parser and the record-batch framing. Malformed input must error,
// never panic; accepted handshakes must survive an encode→parse round
// trip.
package repl

import (
	"bytes"
	"testing"

	"spectm/internal/proto"
	"spectm/internal/wal"
)

// frameCommand encodes one command frame for seeding.
func frameCommand(args ...[]byte) []byte {
	var buf bytes.Buffer
	w := proto.NewWriter(&buf)
	w.Array(len(args))
	for _, a := range args {
		w.ArgBytes(a)
	}
	w.Flush()
	return buf.Bytes()
}

// FuzzHandshake feeds arbitrary bytes to the replica-handshake path —
// proto framing plus parseHello — and round-trips everything it
// accepts.
func FuzzHandshake(f *testing.F) {
	f.Add(frameCommand([]byte("SYNC")))
	f.Add(frameCommand([]byte("PSYNC"), []byte("3"), []byte("500")))
	f.Add(frameCommand([]byte("PSYNC"), []byte("1"), []byte("1099511627776"), []byte("7")))
	f.Add([]byte("SYNC\r\n")) // inline form
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{'*'}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := proto.NewReader(bytes.NewReader(data))
		args, err := rd.Next()
		if err != nil {
			return
		}
		h, err := parseHello(args)
		if err != nil {
			return
		}
		if h.psync && (h.gen == 0 || h.off < wal.LogHeaderSize) {
			t.Fatalf("accepted PSYNC at generation %d, offset %d", h.gen, h.off)
		}
		// Accepted handshakes must round-trip through the encoder.
		var buf bytes.Buffer
		w := proto.NewWriter(&buf)
		sendHello(w, h)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		args2, err := proto.NewReader(bytes.NewReader(buf.Bytes())).Next()
		if err != nil {
			t.Fatalf("re-encoded handshake fails to frame: %v", err)
		}
		h2, err := parseHello(args2)
		if err != nil {
			t.Fatalf("re-encoded handshake fails to parse: %v", err)
		}
		if h2 != h {
			t.Fatalf("handshake round trip changed: %+v vs %+v", h, h2)
		}
	})
}

// FuzzStreamMessage feeds arbitrary frames to the replica's stream
// parser: no panic, and everything accepted satisfies the field bounds
// the applier relies on.
func FuzzStreamMessage(f *testing.F) {
	rec, _ := wal.EncodeRecord(nil, wal.Record{Op: wal.OpPut, Key: []byte("key"), Val: 42 << 2})
	f.Add(frameCommand([]byte("FULL"), []byte("1"), []byte("0"), []byte("0"), []byte("16")))
	f.Add(frameCommand([]byte("CONT"), []byte("7"), []byte("99"), []byte("1024"), []byte("1040"), []byte("3")))
	f.Add(frameCommand([]byte("BATCH"), []byte("1"), []byte("16"), rec))
	f.Add(frameCommand([]byte("ROTATE"), []byte("2")))
	f.Add(frameCommand([]byte("PING"), []byte("10"), []byte("200")))
	f.Add(frameCommand([]byte("SNAP"), []byte("payload")))
	f.Add(frameCommand([]byte("SNAPEND")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := proto.NewReader(bytes.NewReader(data))
		args, err := rd.Next()
		if err != nil {
			return
		}
		var m message
		if err := parseMessage(args, &m); err != nil {
			return
		}
		switch m.kind {
		case 'F', 'C':
			if m.gen == 0 || m.off < wal.LogHeaderSize {
				t.Fatalf("accepted %q with gen %d, offset %d", m.kind, m.gen, m.off)
			}
		case 'B':
			if m.gen == 0 || m.off < wal.LogHeaderSize || len(m.payload) == 0 {
				t.Fatalf("accepted batch gen=%d off=%d len=%d", m.gen, m.off, len(m.payload))
			}
		case 'R':
			if m.gen == 0 {
				t.Fatal("accepted rotation to generation 0")
			}
		case 'S', 'E', 'P':
		default:
			t.Fatalf("parser produced unknown kind %q", m.kind)
		}
	})
}

// FuzzBatchFraming feeds arbitrary bytes to the record-batch splitter:
// no panic, the split must land on a frame boundary with a matching
// record count, and whole valid records must round-trip through the
// decoder exactly as the splitter counted them.
func FuzzBatchFraming(f *testing.F) {
	var batch []byte
	batch, _ = wal.EncodeRecord(batch, wal.Record{Op: wal.OpPut, Key: []byte("alpha"), Val: 17 << 2})
	batch, _ = wal.EncodeRecord(batch, wal.Record{Op: wal.OpDelete, Key: []byte("beta")})
	batch, _ = wal.EncodeRecord(batch, wal.Record{Op: wal.OpSwap2, Key: []byte("a"), Val: 4, Key2: []byte("b"), Val2: 8})
	f.Add(batch)
	f.Add(batch[:len(batch)-3]) // torn tail
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, recs, err := splitRecords(data)
		if n < 0 || n > len(data) {
			t.Fatalf("split consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			return // implausible frame header: correctly refused
		}
		// Re-walk the accepted prefix: the frames must tile it exactly.
		p, cnt := data[:n], 0
		for len(p) > 0 {
			if len(p) < 8 {
				t.Fatalf("accepted prefix ends mid-header (%d bytes left)", len(p))
			}
			bodyLen := int(uint32(p[4]) | uint32(p[5])<<8 | uint32(p[6])<<16 | uint32(p[7])<<24)
			if 8+bodyLen > len(p) {
				t.Fatalf("accepted prefix ends mid-record (%d of %d)", len(p), 8+bodyLen)
			}
			// A CRC-valid frame must decode with the same consumption.
			if rec, m, err := wal.DecodeRecord(p); err == nil {
				if m != 8+bodyLen {
					t.Fatalf("decoder consumed %d, framing says %d", m, 8+bodyLen)
				}
				if rec.Op == 0 {
					t.Fatal("decoder produced a zero op")
				}
			}
			p = p[8+bodyLen:]
			cnt++
		}
		if cnt != recs {
			t.Fatalf("splitter counted %d records, walk found %d", recs, cnt)
		}
	})
}
