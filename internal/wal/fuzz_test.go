package wal

import (
	"bytes"
	"testing"
)

// FuzzRecordDecode feeds arbitrary bytes to the record decoder: it must
// error, never panic, and anything it accepts must re-encode to a frame
// the decoder reads back identically (decode∘encode = id on the
// accepted set).
func FuzzRecordDecode(f *testing.F) {
	seed := func(r Record) {
		b, err := EncodeRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(Record{Op: OpPut, Key: []byte("key"), Val: 42})
	seed(Record{Op: OpDelete, Key: []byte("gone")})
	seed(Record{Op: OpCAS, Key: []byte("c"), Val: 1 << 61})
	seed(Record{Op: OpSwap2, Key: []byte("a"), Val: 1, Key2: []byte("b"), Val2: 2})
	seed(Record{Op: OpEpoch, Val: 9})
	seed(Record{Op: OpIdxCreate, Key: []byte("byval"), Key2: []byte("value")})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record fails to re-encode: %v", err)
		}
		rec2, n2, err := DecodeRecord(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoded record fails to decode: %v (%d/%d)", err, n2, len(re))
		}
		if rec2.Op != rec.Op || !bytes.Equal(rec2.Key, rec.Key) || rec2.Val != rec.Val ||
			!bytes.Equal(rec2.Key2, rec.Key2) || rec2.Val2 != rec.Val2 {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzRecordRoundTrip drives the encoder with arbitrary field values:
// every encodable record must decode back exactly, including from a
// stream with trailing garbage.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(byte(1), []byte("k"), uint64(42), []byte(""), uint64(0))
	f.Add(byte(4), []byte("a"), uint64(1), []byte("b"), uint64(2))
	f.Add(byte(2), []byte("del"), uint64(0), []byte(""), uint64(0))
	f.Add(byte(5), []byte("h"), uint64(1)<<62, []byte("x"), uint64(7))
	f.Add(byte(7), []byte("byval"), uint64(0), []byte("value"), uint64(0))
	f.Fuzz(func(t *testing.T, op byte, k1 []byte, v1 uint64, k2 []byte, v2 uint64) {
		in := Record{Op: op, Key: k1, Val: v1, Key2: k2, Val2: v2}
		buf, err := EncodeRecord(nil, in)
		if err != nil {
			return // unknown op or oversized: correctly refused
		}
		buf = append(buf, 0xde, 0xad) // trailing garbage must not confuse framing
		out, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", in, err)
		}
		if n != len(buf)-2 {
			t.Fatalf("decode consumed %d, want %d", n, len(buf)-2)
		}
		// Compare only the fields the op encodes: a delete carries no
		// value, and only swap2 carries the second pair.
		if out.Op != in.Op || !bytes.Equal(out.Key, in.Key) {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
		}
		if in.Op != OpDelete && out.Val != in.Val {
			t.Fatalf("round trip value mismatch: %+v vs %+v", in, out)
		}
		if (in.Op == OpSwap2 || in.Op == OpIdxCreate) && (!bytes.Equal(out.Key2, in.Key2) || out.Val2 != in.Val2) {
			t.Fatalf("second pair mismatch: %+v vs %+v", in, out)
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot reader: it must
// error, never panic, and never hand entries from a stream whose
// trailer does not validate... except that entries stream before the
// trailer by design — so the invariant checked here is only
// error-not-panic plus bounded key sizes.
func FuzzSnapshot(f *testing.F) {
	var good bytes.Buffer
	sw := NewSnapshotWriter(&good, 1)
	sw.Index("byval", "value")
	sw.Entry("alpha", 1)
	sw.Entry("beta", 2)
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		records := 0
		_, err := ReadSnapshotRecords(bytes.NewReader(data), func(r Record) error {
			if len(r.Key) > MaxKey || len(r.Key2) > MaxKey {
				t.Fatalf("oversized key %d/%d escaped validation", len(r.Key), len(r.Key2))
			}
			if r.Op != OpPut && r.Op != OpIdxCreate {
				t.Fatalf("snapshot reader delivered op %d", r.Op)
			}
			records++
			return nil
		})
		if err == nil && !bytes.HasPrefix(data, snapMagic[:]) {
			t.Fatal("accepted a snapshot without the magic prefix")
		}
		_ = records
	})
}
