// Recovery. Replay scans a log directory, loads the newest snapshot
// whose trailer validates, and then replays every log generation at or
// above the snapshot's, handing each surviving record to the caller.
// Each generation is one file; generations replay oldest first, so
// records always apply in log order.
//
// A log tail that ends mid-record — truncated by a crash, torn by a
// partial sector write, or failing its CRC — marks the end of that
// file's trustworthy prefix: replay stops there and reports the file as
// truncated. Recovery therefore yields exactly the prefix-consistent
// state: the effects of a prefix of the emitted records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// file kinds in a log directory.
const (
	fileOther = iota
	fileLog
	fileSnap
	fileShardLog // wal-<gen>-s<shard>.log: the retired per-shard layout
)

// parseName classifies a directory entry: wal-<gen>.log, snap-<gen>.db,
// a per-shard log of the retired layout, or other.
func parseName(name string) (gen uint64, kind int) {
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		mid := name[4 : len(name)-4]
		if g, err := strconv.ParseUint(mid, 10, 64); err == nil {
			return g, fileLog
		}
		if strings.Contains(mid, "-s") {
			return 0, fileShardLog
		}
		return 0, fileOther
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".db"):
		g, err := strconv.ParseUint(name[5:len(name)-3], 10, 64)
		if err != nil {
			return 0, fileOther
		}
		return g, fileSnap
	default:
		return 0, fileOther
	}
}

// ReplayStats summarizes one recovery.
type ReplayStats struct {
	SnapshotGen     uint64 // generation of the loaded snapshot (0: none)
	SnapshotEntries int    // entries applied from it
	LogFiles        int    // log files replayed
	Records         int    // records applied from logs
	TruncatedFiles  int    // files whose tail was cut at a bad record
	MaxGen          uint64 // highest generation seen across all files
	Epoch           uint64 // highest cluster epoch recorded (OpEpoch)
}

// Replay recovers the state recorded in dir. Snapshot entries are
// delivered as OpPut records; log records follow in generation order.
// Record keys alias internal buffers and must be cloned if retained.
// Stale temporary snapshot files are removed. The returned stats'
// MaxGen+1 is the StartGen a subsequent Open must use. OpEpoch records
// are metadata: they raise the stats' Epoch and are not handed to apply.
// A directory holding per-shard log files (wal-<gen>-s<shard>.log) is
// refused: that layout is no longer read, and skipping its files would
// silently drop their records. A retired OpIdxCreate record, from the
// log or from a snapshot's index-definition frame, is decoded and handed
// to apply like any other, and the map's Apply refuses it: an apply error
// ends Replay, and only one that wraps ErrCorrupt would make it fall back
// to an older snapshot.
func Replay(dir string, apply func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}

	var snaps []uint64
	logs := map[uint64]string{}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, "tmp-snap-") {
			os.Remove(filepath.Join(dir, name)) // crashed snapshot writer
			continue
		}
		gen, kind := parseName(name)
		switch kind {
		case fileSnap:
			snaps = append(snaps, gen)
		case fileLog:
			logs[gen] = name
		case fileShardLog:
			return st, fmt.Errorf("wal: %s: per-shard log layout is no longer read (one log file per generation)",
				filepath.Join(dir, name))
		default:
			continue
		}
		if gen > st.MaxGen {
			st.MaxGen = gen
		}
	}

	// Newest snapshot whose trailer validates wins; damaged ones fall
	// back to the previous (still present if the damaged one never
	// pruned). A directory whose every snapshot is damaged is
	// unrecoverable data loss and reported as an error rather than
	// silently replaying from an empty state.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	snapGen := uint64(0)
	for _, gen := range snaps {
		path := filepath.Join(dir, snapName(gen))
		n, err := loadSnapshot(path, gen, apply)
		if err == nil {
			snapGen = gen
			st.SnapshotGen = gen
			st.SnapshotEntries = n
			break
		}
		if !errors.Is(err, ErrCorrupt) {
			return st, err
		}
	}
	if snapGen == 0 && len(snaps) > 0 {
		return st, fmt.Errorf("%w: no snapshot in %s validates", ErrCorrupt, dir)
	}

	// Epoch records are fencing metadata, not mutations: intercept them
	// here so the caller's apply only ever sees real key assignments.
	applyRec := func(rec Record) error {
		if rec.Op == OpEpoch {
			if rec.Val > st.Epoch {
				st.Epoch = rec.Val
			}
			return nil
		}
		return apply(rec)
	}

	var gens []uint64
	for gen := range logs {
		if gen >= snapGen {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for _, gen := range gens {
		n, truncated, err := replayLog(filepath.Join(dir, logs[gen]), gen, applyRec)
		if err != nil {
			return st, err
		}
		st.LogFiles++
		st.Records += n
		if truncated {
			st.TruncatedFiles++
		}
	}
	return st, nil
}

// loadSnapshot validates path's trailer with a first pass, then applies
// its entries. The two passes keep corrupt entries from ever reaching
// the caller: a snapshot has no trustworthy prefix, only a trustworthy
// whole.
func loadSnapshot(path string, gen uint64, apply func(Record) error) (int, error) {
	validate := func(f *os.File, sink func(Record) error) (uint64, error) {
		defer f.Close()
		return ReadSnapshotRecords(f, sink)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	hdrGen, err := validate(f, func(Record) error { return nil })
	if err != nil {
		return 0, err
	}
	if hdrGen != gen {
		return 0, fmt.Errorf("%w: %s header says generation %d", ErrCorrupt, path, hdrGen)
	}
	if f, err = os.Open(path); err != nil {
		return 0, err
	}
	n := 0
	if _, err := validate(f, func(rec Record) error {
		n++
		return apply(rec)
	}); err != nil {
		return n, err
	}
	return n, nil
}

// replayLog applies one log file's trustworthy prefix.
func replayLog(path string, gen uint64, apply func(Record) error) (records int, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) < logHeaderSize {
		return 0, true, nil // crashed before the header landed
	}
	if [8]byte(data[:8]) != walMagic {
		return 0, false, fmt.Errorf("%w: %s: bad log magic", ErrCorrupt, path)
	}
	if hdrGen := binary.LittleEndian.Uint64(data[8:]); hdrGen != gen {
		return 0, false, fmt.Errorf("%w: %s header says generation %d", ErrCorrupt, path, hdrGen)
	}
	p := data[logHeaderSize:]
	for len(p) > 0 {
		rec, n, err := DecodeRecord(p)
		if err != nil {
			// Truncated tail, torn record or CRC damage: the prefix up
			// to here is the recoverable state.
			return records, true, nil
		}
		if err := apply(rec); err != nil {
			return records, false, err
		}
		records++
		p = p[n:]
	}
	return records, false, nil
}
