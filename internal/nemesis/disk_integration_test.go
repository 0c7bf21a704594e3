// DiskFaults against a real WAL through the wal.Options.WrapFile hook:
// a torn write is the crash-consistency fault the WAL's CRC framing
// must absorb — replay recovers the intact prefix and cuts the torn
// tail, exactly as it would after a power loss mid-write.
package nemesis

import (
	"errors"
	"testing"

	"spectm/internal/wal"
)

func TestDiskFaultsTornWriteWALRecovery(t *testing.T) {
	dir := t.TempDir()
	df := &DiskFaults{}
	l, err := wal.Open(dir, wal.Options{
		Policy:   wal.EveryN(1),
		WrapFile: func(f wal.File) wal.File { return df.Wrap(f) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// An intact prefix, flushed to disk.
	l.Put("a", 1)
	l.Put("b", 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	// The next write tears mid-record: half the bytes land, then the
	// "disk" fails — the syncer latches the error and the record is
	// torn on disk.
	df.ArmTorn()
	l.Put("c", 3)
	if err := l.Flush(); !errors.Is(err, ErrTorn) {
		t.Fatalf("Flush over a torn write = %v, want ErrTorn", err)
	}
	if got := df.TornWrites.Load(); got != 1 {
		t.Fatalf("TornWrites = %d, want 1", got)
	}
	l.Close()

	// Replay over the damaged directory: the intact prefix survives,
	// the torn tail is cut, and the file is reported truncated.
	state := map[string]uint64{}
	st, err := wal.Replay(dir, func(r wal.Record) error {
		switch r.Op {
		case wal.OpPut, wal.OpCAS:
			state[string(r.Key)] = r.Val
		case wal.OpDelete:
			delete(state, string(r.Key))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if state["a"] != 1 || state["b"] != 2 {
		t.Fatalf("intact prefix lost: %v", state)
	}
	if _, ok := state["c"]; ok {
		t.Fatalf("torn record materialized: %v", state)
	}
	if st.TruncatedFiles != 1 {
		t.Fatalf("ReplayStats.TruncatedFiles = %d, want 1 (%+v)", st.TruncatedFiles, st)
	}
}

// TestDiskFaultsFailingSyncSurfacesError: a failing fsync must latch as
// the log's terminal I/O error — durability is never silently skipped.
func TestDiskFaultsFailingSyncSurfacesError(t *testing.T) {
	dir := t.TempDir()
	df := &DiskFaults{}
	l, err := wal.Open(dir, wal.Options{
		Policy:   wal.EveryN(1),
		WrapFile: func(f wal.File) wal.File { return df.Wrap(f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	df.FailSyncs(true)
	l.Put("k", 1)
	if err := l.Flush(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("Flush with failing fsync = %v, want ErrSyncFailed", err)
	}
	if got := df.FailedSyncs.Load(); got == 0 {
		t.Fatal("FailedSyncs counter never moved")
	}
}
