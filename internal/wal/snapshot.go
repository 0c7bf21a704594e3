// Snapshot files. A snapshot is a flat stream of records with a
// CRC-validated trailer:
//
//	magic "SPTMSNP1" (8B) | gen (8B LE)
//	repeated:  tag 1 (1B) | klen uvarint | key | val uvarint     (entry)
//	       or  tag 2 (1B) | nlen uvarint | name | klen uvarint | kind  (index def)
//	trailer:   tag 0 (1B) | record count (8B LE) | crc32c (4B LE)
//
// Tag 2, a secondary-index definition, is retired: no writer emits it,
// and the reader hands it on as an OpIdxCreate record so that the map
// refuses a snapshot holding one instead of loading it without its
// index.
//
// The CRC covers every byte before it. A snapshot without a valid
// trailer is incomplete (crashed writer) or corrupt and is never
// trusted; recovery falls back to an older one. Snapshots are written to
// a temporary file, fsynced and renamed into place, so a named snapshot
// is complete barring media corruption — which the trailer detects.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

var snapMagic = [8]byte{'S', 'P', 'T', 'M', 'S', 'N', 'P', '1'}

const (
	snapEntry = byte(1)
	snapIndex = byte(2)
	snapEnd   = byte(0)
	// MaxKey bounds one snapshot key (matches the wire protocol's bulk
	// limit with headroom).
	MaxKey = 1 << 21
)

// SnapshotWriter streams a snapshot. Create with NewSnapshotWriter, call
// Entry for each pair, then Close to emit the trailer.
type SnapshotWriter struct {
	w     *bufio.Writer
	crc   uint32
	count uint64
	err   error
	tmp   [24]byte
}

// NewSnapshotWriter writes the header and returns the writer.
func NewSnapshotWriter(w io.Writer, gen uint64) *SnapshotWriter {
	sw := &SnapshotWriter{w: bufio.NewWriterSize(w, 64<<10)}
	binary.LittleEndian.PutUint64(sw.tmp[:8], gen)
	sw.write(snapMagic[:])
	sw.write(sw.tmp[:8])
	return sw
}

func (sw *SnapshotWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, castagnoli, b)
	_, sw.err = sw.w.Write(b)
}

// Entry appends one key/value pair.
func (sw *SnapshotWriter) Entry(key string, val uint64) {
	sw.tmp[0] = snapEntry
	n := 1 + binary.PutUvarint(sw.tmp[1:], uint64(len(key)))
	sw.write(sw.tmp[:n])
	if sw.err == nil {
		sw.crc = crc32.Update(sw.crc, castagnoli, []byte(key))
		_, sw.err = sw.w.WriteString(key)
	}
	n = binary.PutUvarint(sw.tmp[:], val)
	sw.write(sw.tmp[:n])
	sw.count++
}

// Close writes the trailer and flushes. The underlying file is not
// synced or closed; callers own that.
func (sw *SnapshotWriter) Close() error {
	sw.tmp[0] = snapEnd
	binary.LittleEndian.PutUint64(sw.tmp[1:], sw.count)
	sw.write(sw.tmp[:9])
	if sw.err == nil {
		binary.LittleEndian.PutUint32(sw.tmp[:], sw.crc)
		_, sw.err = sw.w.Write(sw.tmp[:4])
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// ReadSnapshotRecords streams a snapshot from r, calling apply with one
// Record per snapshot record: key/value entries arrive as OpPut records,
// retired index definitions as OpIdxCreate records (Key = name, Key2 =
// kind).
// It returns the generation recorded in the header. Any framing damage —
// truncation, CRC mismatch, oversized key, wrong count — returns
// ErrCorrupt: a snapshot is all-or-nothing, there is no trustworthy
// prefix without the trailer. Record byte fields alias internal buffers
// valid only during the call.
func ReadSnapshotRecords(r io.Reader, apply func(Record) error) (gen uint64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	crc := uint32(0)
	read := func(b []byte) error {
		if _, err := io.ReadFull(br, b); err != nil {
			return fmt.Errorf("%w: truncated snapshot", ErrCorrupt)
		}
		crc = crc32.Update(crc, castagnoli, b)
		return nil
	}
	readUvarint := func() (uint64, error) {
		var v uint64
		var one [1]byte
		for shift := uint(0); ; shift += 7 {
			if shift > 63 {
				return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
			}
			if err := read(one[:]); err != nil {
				return 0, err
			}
			v |= uint64(one[0]&0x7f) << shift
			if one[0] < 0x80 {
				return v, nil
			}
		}
	}

	var hdr [16]byte
	if err := read(hdr[:]); err != nil {
		return 0, err
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	gen = binary.LittleEndian.Uint64(hdr[8:])

	// readKey reads a length-prefixed string into buf, growing it as
	// needed. The returned slice aliases buf.
	var key, key2 []byte
	readKey := func(buf []byte) ([]byte, error) {
		klen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if klen > MaxKey {
			return nil, fmt.Errorf("%w: snapshot key length %d", ErrCorrupt, klen)
		}
		if uint64(cap(buf)) < klen {
			buf = make([]byte, klen)
		}
		buf = buf[:klen]
		if err := read(buf); err != nil {
			return nil, err
		}
		return buf, nil
	}

	var count uint64
	for {
		var tag [1]byte
		if err := read(tag[:]); err != nil {
			return 0, err
		}
		if tag[0] == snapEnd {
			break
		}
		switch tag[0] {
		case snapEntry:
			if key, err = readKey(key); err != nil {
				return 0, err
			}
			val, err := readUvarint()
			if err != nil {
				return 0, err
			}
			if err := apply(Record{Op: OpPut, Key: key, Val: val}); err != nil {
				return 0, err
			}
		case snapIndex:
			if key, err = readKey(key); err != nil {
				return 0, err
			}
			if key2, err = readKey(key2); err != nil {
				return 0, err
			}
			if err := apply(Record{Op: OpIdxCreate, Key: key, Key2: key2}); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("%w: bad snapshot tag %d", ErrCorrupt, tag[0])
		}
		count++
	}

	var trailer [12]byte
	if err := read(trailer[:8]); err != nil {
		return 0, err
	}
	if got := binary.LittleEndian.Uint64(trailer[:8]); got != count {
		return 0, fmt.Errorf("%w: snapshot count %d, trailer says %d", ErrCorrupt, count, got)
	}
	want := crc
	if _, err := io.ReadFull(br, trailer[8:12]); err != nil {
		return 0, fmt.Errorf("%w: truncated snapshot trailer", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[8:12]) != want {
		return 0, fmt.Errorf("%w: snapshot crc mismatch", ErrCorrupt)
	}
	return gen, nil
}
