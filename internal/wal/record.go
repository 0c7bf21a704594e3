// Package wal implements the durability subsystem behind spectm.Map: one
// append-only write-ahead log per map with batched group commit, plus
// snapshot files and prefix-consistent recovery.
//
// The package stands alone — it knows nothing about the map. The map's
// post-commit paths emit typed mutation records (Put, Delete, CAS,
// Swap2) into one in-memory buffer; a single background syncer
// goroutine writes and fsyncs it according to the configured Policy
// (Always / EveryN / Interval). Each generation is one file,
// wal-<gen>.log. Recovery replays the newest complete snapshot and then
// every log generation at or above it, handing each surviving record to
// the caller.
//
// # Record format
//
// Every record is framed as
//
//	crc32c (4B LE) | bodyLen (4B LE) | body
//
// where the CRC (Castagnoli) covers bodyLen and body, and the body is
//
//	op (1B) | fields
//
// with op-specific fields (uvarint lengths, raw key bytes, uvarint
// values):
//
//	OpPut, OpCAS   klen | key | val
//	OpDelete       klen | key
//	OpSwap2        k1len | k1 | v1 | k2len | k2 | v2
//	OpEpoch        klen=0 | epoch
//	OpIdxCreate    nlen | name | 0 | klen | kind | 0   (retired; decoded only)
//
// A decoder that hits a short frame, a CRC mismatch, an unknown op or
// trailing garbage stops: everything before the bad frame is the
// recoverable prefix, everything after it is untrusted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record ops. The distinct CAS/Swap types exist for observability and
// torn-write analysis; replay treats every op except OpDelete as an
// absolute "key now holds val" assignment.
const (
	OpPut    = byte(1) // Put or Update: key ← val
	OpDelete = byte(2) // Delete: key removed
	OpCAS    = byte(3) // CompareAndSwap succeeded: key ← new val
	OpSwap2  = byte(4) // Swap2: k1 ← v1 and k2 ← v2 atomically
	// OpEpoch records a cluster-epoch bump (failover fencing): Val holds
	// the new epoch, Key is empty. It is log metadata, not a mutation —
	// recovery and replication track it but never hand it to the map.
	OpEpoch = byte(6)
	// OpIdxCreate is retired: it recorded a secondary-index definition
	// (Key the index name, Key2 the extractor kind), and nothing writes
	// it any more. The decoder still reads it, so a directory that holds
	// one reaches the map's Apply, which refuses it by name; an unknown
	// op would instead read as a torn tail and silently cut the log there.
	OpIdxCreate = byte(7)
)

// Framing limits.
const (
	recHeader = 8 // crc32 + bodyLen
	// MaxBody bounds one record body; larger lengths mean corruption.
	// Two maximum-size wire keys (proto.MaxBulk) plus values fit.
	MaxBody = 1 << 22
)

// castagnoli is the CRC-32C table shared by records and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record or snapshot that fails validation. In a
// log file it marks the end of the trustworthy prefix.
var ErrCorrupt = errors.New("wal: corrupt data")

// errShort signals a cleanly truncated frame: the buffer ends before the
// record does. Recovery treats it as the end of the log tail.
var errShort = errors.New("wal: short record")

// Record is one decoded log record. Key fields alias the decode buffer
// and are valid only until it is reused.
type Record struct {
	Op        byte
	Key, Key2 []byte
	Val, Val2 uint64
}

// byteseq lets the zero-allocation append path take keys as strings
// while tests and fuzzers round-trip []byte.
type byteseq interface{ ~string | ~[]byte }

// appendBody encodes the op-specific body.
func appendBody[S byteseq](dst []byte, op byte, k1 S, v1 uint64, k2 S, v2 uint64) []byte {
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, uint64(len(k1)))
	dst = append(dst, k1...)
	switch op {
	case OpDelete:
	case OpSwap2, OpIdxCreate:
		dst = binary.AppendUvarint(dst, v1)
		dst = binary.AppendUvarint(dst, uint64(len(k2)))
		dst = append(dst, k2...)
		dst = binary.AppendUvarint(dst, v2)
	default:
		dst = binary.AppendUvarint(dst, v1)
	}
	return dst
}

// appendRecord frames one record onto dst. It performs no allocation
// beyond growing dst, which reaches a steady capacity under reuse.
func appendRecord[S byteseq](dst []byte, op byte, k1 S, v1 uint64, k2 S, v2 uint64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = appendBody(dst, op, k1, v1, k2, v2)
	body := dst[start+recHeader:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(body)))
	crc := crc32.Update(0, castagnoli, dst[start+4:start+recHeader])
	crc = crc32.Update(crc, castagnoli, body)
	binary.LittleEndian.PutUint32(dst[start:], crc)
	return dst
}

// EncodeRecord frames r onto dst (tests, fuzzing, file surgery). The
// map's hot path uses the typed Log methods instead.
func EncodeRecord(dst []byte, r Record) ([]byte, error) {
	switch r.Op {
	case OpPut, OpDelete, OpCAS, OpSwap2, OpEpoch, OpIdxCreate:
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, r.Op)
	}
	if len(r.Key)+len(r.Key2)+32 > MaxBody {
		return nil, fmt.Errorf("%w: record too large", ErrCorrupt)
	}
	return appendRecord(dst, r.Op, r.Key, r.Val, r.Key2, r.Val2), nil
}

// DecodeRecord decodes the first record in b. It returns the record, the
// number of bytes consumed, and an error: errShort (wrapped in
// ErrTruncated semantics by callers) when b ends before the record does,
// ErrCorrupt when the frame is malformed. Record keys alias b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeader {
		return Record{}, 0, errShort
	}
	bodyLen := binary.LittleEndian.Uint32(b[4:])
	if bodyLen == 0 || bodyLen > MaxBody {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, bodyLen)
	}
	end := recHeader + int(bodyLen)
	if len(b) < end {
		return Record{}, 0, errShort
	}
	crc := crc32.Update(0, castagnoli, b[4:end])
	if crc != binary.LittleEndian.Uint32(b) {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	body := b[recHeader:end]
	r, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return r, end, nil
}

// decodeBody parses the op-specific fields of a CRC-validated body.
func decodeBody(body []byte) (Record, error) {
	r := Record{Op: body[0]}
	p := body[1:]
	var err error
	if r.Key, p, err = takeKey(p); err != nil {
		return Record{}, err
	}
	switch r.Op {
	case OpDelete:
	case OpPut, OpCAS, OpEpoch:
		if r.Val, p, err = takeUvarint(p); err != nil {
			return Record{}, err
		}
	case OpSwap2, OpIdxCreate:
		if r.Val, p, err = takeUvarint(p); err != nil {
			return Record{}, err
		}
		if r.Key2, p, err = takeKey(p); err != nil {
			return Record{}, err
		}
		if r.Val2, p, err = takeUvarint(p); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, r.Op)
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, len(p))
	}
	return r, nil
}

func takeUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, p[n:], nil
}

func takeKey(p []byte) ([]byte, []byte, error) {
	n, p, err := takeUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: key length %d exceeds body", ErrCorrupt, n)
	}
	return p[:n], p[n:], nil
}
