package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// replayAll replays dir into a plain map (the recovery semantics every
// higher layer relies on).
func replayAll(t *testing.T, dir string) (map[string]uint64, ReplayStats) {
	t.Helper()
	state := map[string]uint64{}
	st, err := Replay(dir, func(r Record) error {
		switch r.Op {
		case OpDelete:
			delete(state, string(r.Key))
		case OpSwap2:
			state[string(r.Key)] = r.Val
			state[string(r.Key2)] = r.Val2
		default:
			state[string(r.Key)] = r.Val
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%s): %v", dir, err)
	}
	return state, st
}

func TestLogWriteFlushReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1000)})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("a", 1)
	l.Put("b", 2)
	l.CAS("b", 3)
	l.Delete("never-existed")
	l.Put("c", 4)
	l.Swap2("c", 5, "d", 6)
	l.Put("a", 7)
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	state, st := replayAll(t, dir)
	want := map[string]uint64{"a": 7, "b": 3, "c": 5, "d": 6}
	if len(state) != len(want) {
		t.Fatalf("state %v, want %v", state, want)
	}
	for k, v := range want {
		if state[k] != v {
			t.Errorf("key %q = %d, want %d", k, state[k], v)
		}
	}
	if st.Records != 7 || st.TruncatedFiles != 0 {
		t.Errorf("stats %+v, want 7 records, 0 truncated", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: Interval(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		l.Put(fmt.Sprintf("k%03d", i), uint64(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state, _ := replayAll(t, dir)
	if len(state) != 100 {
		t.Fatalf("recovered %d keys, want 100", len(state))
	}
}

func TestAlwaysPolicyBlocksUntilDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: Always()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Put(fmt.Sprintf("g%d-%03d", g, i), uint64(i))
			}
		}(g)
	}
	wg.Wait()
	// Every Put returned, so every record must already be on disk —
	// replay without Flush or Close.
	state, _ := replayAll(t, dir)
	if len(state) != 200 {
		t.Fatalf("recovered %d keys, want 200 (Always must be durable at return)", len(state))
	}
	l.Close()
}

// TestAlwaysWatermarkAdvancesAfterQuiesce regresses a liveness bug: an
// append racing into a syncer round gets written and fsynced by that
// round, but if the round's watermark does not cover it and traffic
// then stops, no later round re-advances it, leaving the Always waiter
// asleep forever. The hook widens the window so the race hits reliably;
// each single append must still return.
func TestAlwaysWatermarkAdvancesAfterQuiesce(t *testing.T) {
	// Widen the kick→swap window so the second append of each pair
	// reliably lands inside the first append's syncer round: its record
	// is written and fsynced by that round, and with no further traffic
	// only that round's watermark can release it.
	testHookBatchSeq = func() { time.Sleep(2 * time.Millisecond) }
	defer func() { testHookBatchSeq = nil }()
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: Always()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 30; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			l.Put(fmt.Sprintf("a%02d", i), uint64(i))
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond) // land mid-round of the first append
			l.Put(fmt.Sprintf("b%02d", i), uint64(i))
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Always append hung after quiesce: watermark never advanced")
		}
	}
}

func TestRotateAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("old", 1)
	l.Put("both", 2)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if gen != 2 {
		t.Fatalf("first rotation produced generation %d, want 2", gen)
	}
	// Records after the rotation land in the new generation's logs.
	l.Put("new", 3)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Snapshot the pre-rotation state under the new generation and
	// prune. Replay must see snapshot + new-generation tail.
	err = l.CommitSnapshot(gen, func(sw *SnapshotWriter) error {
		sw.Entry("old", 1)
		sw.Entry("both", 2)
		return nil
	})
	if err != nil {
		t.Fatalf("CommitSnapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Old-generation files must be gone.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if g, kind := parseName(e.Name()); kind != fileOther && g < gen {
			t.Errorf("stale file %s survived pruning", e.Name())
		}
	}
	state, st := replayAll(t, dir)
	want := map[string]uint64{"old": 1, "both": 2, "new": 3}
	for k, v := range want {
		if state[k] != v {
			t.Errorf("key %q = %d, want %d", k, state[k], v)
		}
	}
	if st.SnapshotGen != gen || st.SnapshotEntries != 2 {
		t.Errorf("stats %+v, want snapshot gen %d with 2 entries", st, gen)
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Put(fmt.Sprintf("k%02d", i), uint64(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName(1))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the file at every byte offset: recovery must always succeed
	// and recover exactly the records that fully survive.
	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, logName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		state, st := replayAll(t, sub)
		wantRecs := countRecords(full[:cut])
		if st.Records != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, st.Records, wantRecs)
		}
		if len(state) != wantRecs { // distinct keys, no deletes
			t.Fatalf("cut %d: %d keys, want %d", cut, len(state), wantRecs)
		}
	}
}

// countRecords decodes as many whole records as data holds past the
// header — the test's independent definition of the trustworthy prefix.
func countRecords(data []byte) int {
	if len(data) < logHeaderSize {
		return 0
	}
	p := data[logHeaderSize:]
	n := 0
	for {
		_, adv, err := DecodeRecord(p)
		if err != nil {
			return n
		}
		n++
		p = p[adv:]
	}
}

func TestReplayCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Put(fmt.Sprintf("k%02d", i), uint64(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the record stream: replay keeps
	// the prefix before the damaged record and reports truncation.
	mid := logHeaderSize + (len(data)-logHeaderSize)/2
	data[mid] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	state, st := replayAll(t, dir)
	if st.TruncatedFiles != 1 {
		t.Errorf("stats %+v: corrupt middle must report a truncated file", st)
	}
	if len(state) >= 10 {
		t.Errorf("recovered %d keys from a damaged log of 10", len(state))
	}
	for k, v := range state {
		var i int
		fmt.Sscanf(k, "k%02d", &i)
		if v != uint64(i) {
			t.Errorf("surviving key %q has wrong value %d", k, v)
		}
	}
}

func TestReplayRejectsAllCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("a", 1)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitSnapshot(gen, func(sw *SnapshotWriter) error {
		sw.Entry("a", 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, snapName(gen))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff // break the CRC
	os.WriteFile(path, data, 0o644)
	_, err = Replay(dir, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("replay with only a corrupt snapshot must fail, got %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf, 3)
	want := map[string]uint64{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		sw.Entry(k, uint64(i)*3)
		want[k] = uint64(i) * 3
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	gen, err := ReadSnapshotRecords(bytes.NewReader(buf.Bytes()), func(rec Record) error {
		if rec.Op != OpPut {
			return fmt.Errorf("record op %d, want %d", rec.Op, OpPut)
		}
		got[string(rec.Key)] = rec.Val
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || len(got) != len(want) {
		t.Fatalf("gen %d, %d entries; want 3, %d", gen, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %d, want %d", k, got[k], v)
		}
	}
	// Every truncation must be rejected.
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 97 {
		if _, err := ReadSnapshotRecords(bytes.NewReader(full[:cut]), func(Record) error { return nil }); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", cut, len(full))
		}
	}
}

func TestAutoCompactionCallback(t *testing.T) {
	dir := t.TempDir()
	fired := make(chan struct{}, 1)
	l, err := Open(dir, Options{
		Policy:       EveryN(1),
		CompactAfter: 256,
		OnFull: func() {
			select {
			case fired <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		l.Put(fmt.Sprintf("key-%032d", i), uint64(i))
	}
	l.Flush()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnFull never fired past CompactAfter")
	}
}

func TestAppendAfterCloseIsDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("kept", 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.Put("dropped", 2) // must not panic or block
	state, _ := replayAll(t, dir)
	if _, ok := state["dropped"]; ok || state["kept"] != 1 {
		t.Fatalf("state %v, want only kept=1", state)
	}
}

// TestReplayRefusesPerShardLayout: a directory written in the retired
// per-shard layout (wal-<gen>-s<shard>.log) must be refused by name,
// not skipped — skipping would silently drop every record it holds.
func TestReplayRefusesPerShardLayout(t *testing.T) {
	dir := t.TempDir()
	data := append([]byte(nil), walMagic[:]...)
	data = append(data, 1, 0, 0, 0, 0, 0, 0, 0) // generation 1
	data = append(data, 3, 0, 0, 0)             // shard 3
	data, err := EncodeRecord(data, Record{Op: OpPut, Key: []byte("k"), Val: 4})
	if err != nil {
		t.Fatal(err)
	}
	const name = "wal-00000001-s0003.log"
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	applied := 0
	_, err = Replay(dir, func(Record) error { applied++; return nil })
	if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "per-shard") {
		t.Fatalf("Replay over a per-shard log = %v, want an error naming %s and the per-shard layout", err, name)
	}
	if applied != 0 {
		t.Fatalf("Replay applied %d records before refusing", applied)
	}
}
