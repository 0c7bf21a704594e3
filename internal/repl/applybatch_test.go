package repl

import (
	"fmt"
	"io"
	"testing"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

const batchEpoch = 7

// batchRecords is a record stream with every mutation shape — inserts,
// updates, CAS, SWAP2 (one over a missing key), deletes of present and
// missing keys — and an epoch record behind the first 66 records, so
// the records before it span two of ApplyEach's windows.
func batchRecords() []wal.Record {
	var recs []wal.Record
	put := func(op byte, k string, v uint64) {
		recs = append(recs, wal.Record{Op: op, Key: []byte(k), Val: uint64(word.FromUint(v))})
	}
	swap := func(k1 string, v1 uint64, k2 string, v2 uint64) {
		recs = append(recs, wal.Record{Op: wal.OpSwap2,
			Key: []byte(k1), Val: uint64(word.FromUint(v1)),
			Key2: []byte(k2), Val2: uint64(word.FromUint(v2))})
	}
	del := func(k string) { recs = append(recs, wal.Record{Op: wal.OpDelete, Key: []byte(k)}) }
	for i := 0; i < 60; i++ {
		put(wal.OpPut, fmt.Sprintf("key-%04d", i), uint64(i))
	}
	put(wal.OpPut, "key-0003", 33)
	put(wal.OpCAS, "key-0004", 44)
	swap("key-0001", 11, "key-0002", 22)
	del("key-0005")
	del("missing")
	recs = append(recs, wal.Record{Op: wal.OpEpoch, Val: batchEpoch})
	put(wal.OpPut, "key-0005", 55)
	swap("key-0006", 66, "absent-a-key-longer-than-sixteen", 77)
	del("key-0007")
	put(wal.OpCAS, "key-0008", 88)
	for i := 60; i < 64; i++ {
		put(wal.OpPut, fmt.Sprintf("key-%04d", i), uint64(i))
	}
	return recs
}

// dumpWith drains a map through Range on th.
func dumpWith(th *shardmap.Thread) map[string]uint64 {
	got := map[string]uint64{}
	th.Range(func(k string, v shardmap.Value) bool {
		got[k] = v.Uint()
		return true
	})
	return got
}

// TestReplicaApplyBatchSplit streams batchRecords to a replica as two
// BATCH messages, split at every byte offset of the stream — on record
// boundaries and inside records — and checks the replica ends in the
// state record-at-a-time apply gives: the same map, the epoch adopted,
// and, when the epoch is adopted, exactly the records before the epoch
// record applied. The cursor must cover the whole stream. With -short,
// every seventh offset.
func TestReplicaApplyBatchSplit(t *testing.T) {
	recs := batchRecords()
	var stream []byte
	for _, rec := range recs {
		var err error
		if stream, err = wal.EncodeRecord(stream, rec); err != nil {
			t.Fatal(err)
		}
	}

	ref := shardmap.New(valEngine(t), shardmap.WithShards(2), shardmap.WithInitialBuckets(2))
	rth := ref.NewThread()
	var wantAtEpoch map[string]uint64
	for _, rec := range recs {
		if rec.Op == wal.OpEpoch {
			wantAtEpoch = dumpWith(rth)
			continue
		}
		if err := rth.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpWith(rth)

	wr := proto.NewWriter(io.Discard)
	const start = int64(wal.LogHeaderSize)
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for split := 0; split <= len(stream); split += stride {
		m := shardmap.New(valEngine(t), shardmap.WithShards(2), shardmap.WithInitialBuckets(2))
		dth := m.NewThread()
		var atEpoch map[string]uint64
		r := NewReplica(m, "127.0.0.1:1", WithEpochNotify(func(uint64) { atEpoch = dumpWith(dth) }))
		r.cur.Gen, r.cur.Off = 1, start
		for _, part := range [][]byte{stream[:split], stream[split:]} {
			msg := message{kind: 'B', gen: 1, off: r.cur.Off + int64(len(r.pending)), payload: part}
			if err := r.applyBatch(&msg, wr); err != nil {
				t.Fatalf("split at %d: %v", split, err)
			}
		}
		what := fmt.Sprintf("split at %d", split)
		requireEqualMaps(t, dumpWith(dth), want, what)
		requireEqualMaps(t, atEpoch, wantAtEpoch, what+", at the epoch record")
		if r.Epoch() != batchEpoch {
			t.Errorf("%s: epoch %d, want %d", what, r.Epoch(), batchEpoch)
		}
		if r.cur.Off != start+int64(len(stream)) || r.cur.Recs != uint64(len(recs)) || len(r.pending) != 0 {
			t.Errorf("%s: cursor at offset %d after %d records with %d bytes pending, want %d after %d with none",
				what, r.cur.Off, r.cur.Recs, len(r.pending), start+int64(len(stream)), len(recs))
		}
		if t.Failed() {
			return
		}
	}
}

// TestReplicaApplyBatchZeroAlloc pins the replica's steady state: a
// BATCH of 32 updates to present keys is decoded, touched and applied
// without allocating.
func TestReplicaApplyBatchZeroAlloc(t *testing.T) {
	m := shardmap.New(valEngine(t), shardmap.WithShards(2), shardmap.WithInitialBuckets(64))
	th := m.NewThread()
	var payload []byte
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%04d", i)
		th.Put(k, word.FromUint(1))
		var err error
		payload, err = wal.EncodeRecord(payload, wal.Record{Op: wal.OpPut, Key: []byte(k), Val: uint64(word.FromUint(uint64(i)))})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplica(m, "127.0.0.1:1")
	r.cur.Gen, r.cur.Off = 1, wal.LogHeaderSize
	wr := proto.NewWriter(io.Discard)
	msg := message{kind: 'B', gen: 1, payload: payload}
	allocs := testing.AllocsPerRun(200, func() {
		msg.off = r.cur.Off + int64(len(r.pending))
		if err := r.applyBatch(&msg, wr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("applying a BATCH of 32 updates allocates %.2f times, want 0", allocs)
	}
}
