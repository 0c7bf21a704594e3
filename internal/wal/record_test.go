package wal

import (
	"bytes"
	"errors"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpPut, Key: []byte("k"), Val: 42},
		{Op: OpPut, Key: []byte(""), Val: 0},
		{Op: OpDelete, Key: []byte("gone")},
		{Op: OpCAS, Key: []byte("counter"), Val: 1 << 61},
		{Op: OpSwap2, Key: []byte("a"), Val: 7, Key2: []byte("b"), Val2: 9},
		{Op: OpEpoch, Val: 3},
		{Op: OpPut, Key: bytes.Repeat([]byte("K"), 4096), Val: 5},
	}
	var buf []byte
	for _, r := range recs {
		var err error
		if buf, err = EncodeRecord(buf, r); err != nil {
			t.Fatalf("encode %+v: %v", r, err)
		}
	}
	p := buf
	for i, want := range recs {
		got, n, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got.Op != want.Op || !bytes.Equal(got.Key, want.Key) || got.Val != want.Val ||
			!bytes.Equal(got.Key2, want.Key2) || got.Val2 != want.Val2 {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		p = p[n:]
	}
	if len(p) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(p))
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := EncodeRecord(nil, Record{Op: OpPut, Key: []byte("key"), Val: 99})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRecord(full[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(full))
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	full, err := EncodeRecord(nil, Record{Op: OpSwap2, Key: []byte("aa"), Val: 1, Key2: []byte("bb"), Val2: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		mut := bytes.Clone(full)
		mut[i] ^= 0x5a
		r, n, err := DecodeRecord(mut)
		if err == nil && n == len(full) {
			// A flipped bit that still decodes to the full frame must be
			// a CRC collision — with CRC-32C over this frame it cannot
			// happen for a single-byte flip.
			t.Fatalf("flip at %d decoded to %+v", i, r)
		}
	}
}

func TestDecodeErrorsNotPanics(t *testing.T) {
	bad := [][]byte{
		nil,
		{0, 0, 0, 0, 0, 0, 0, 0},             // bodyLen 0
		{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, // bodyLen over MaxBody
		append(make([]byte, 8), bytes.Repeat([]byte{0xff}, 64)...), // garbage
	}
	for i, b := range bad {
		if _, _, err := DecodeRecord(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := EncodeRecord(nil, Record{Op: 99}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown op must fail encode")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"always", "every=1", "every=512", "interval=100ms", "interval=2s"} {
		p, err := ParsePolicy(ok)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", ok, err)
			continue
		}
		if rt, err := ParsePolicy(p.String()); err != nil || rt != p {
			t.Errorf("policy %q does not round-trip through String(): %v %v", ok, rt, err)
		}
	}
	for _, bad := range []string{"", "never", "every=0", "every=x", "interval=", "interval=-1s"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) should fail", bad)
		}
	}
}

func TestParseName(t *testing.T) {
	cases := []struct {
		name string
		gen  uint64
		kind int
	}{
		{"wal-00000001.log", 1, fileLog},
		{"wal-00000042.log", 42, fileLog},
		{"snap-00000007.db", 7, fileSnap},
		{"wal-00000001-s0000.log", 0, fileShardLog},
		{"wal-xx.log", 0, fileOther},
		{"snap-.db", 0, fileOther},
		{"MANIFEST", 0, fileOther},
		{"tmp-snap-123", 0, fileOther},
	}
	for _, c := range cases {
		gen, kind := parseName(c.name)
		if gen != c.gen || kind != c.kind {
			t.Errorf("parseName(%q) = (%d,%d), want (%d,%d)",
				c.name, gen, kind, c.gen, c.kind)
		}
	}
	// Generated names must parse back.
	if gen, kind := parseName(logName(9)); gen != 9 || kind != fileLog {
		t.Errorf("logName round-trip failed: %d %d", gen, kind)
	}
	if gen, kind := parseName(snapName(12)); gen != 12 || kind != fileSnap {
		t.Errorf("snapName round-trip failed: %d %d", gen, kind)
	}
}
