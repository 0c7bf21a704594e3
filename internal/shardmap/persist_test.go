package shardmap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/wal"
	"spectm/internal/word"
)

func valEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewChecked(core.Config{Layout: core.LayoutVal, MaxThreads: oracleMaxThreads})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// contents drains the map through Range into a plain map.
func contents(t *testing.T, m *Map) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	th := m.NewThread()
	th.Range(func(k string, v Value) bool {
		if _, dup := got[k]; dup {
			t.Errorf("Range yielded %q twice in a quiescent map", k)
		}
		got[k] = v.Uint()
		return true
	})
	return got
}

func requireEqual(t *testing.T, got, want map[string]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Errorf("key %q = %d,%v; want %d", k, gv, ok, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected key %q", k)
		}
	}
}

func TestPersistRecoverBasic(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(4)), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	want := map[string]uint64{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%04d", i)
		th.Put(k, word.FromUint(uint64(i)))
		want[k] = uint64(i)
	}
	for i := 0; i < 500; i += 3 {
		k := fmt.Sprintf("key-%04d", i)
		th.Delete(k)
		delete(want, k)
	}
	if th.CompareAndSwap("key-0001", word.FromUint(1), word.FromUint(9001)) {
		want["key-0001"] = 9001
	}
	if th.Swap2("key-0004", "key-0005") {
		want["key-0004"], want["key-0005"] = want["key-0005"], want["key-0004"]
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(valEngine(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	requireEqual(t, contents(t, m2), want)
	if m2.Len() != len(want) {
		t.Errorf("recovered Len %d, want %d", m2.Len(), len(want))
	}
	// Recovery replay must not leak into the op counters.
	if ops := m2.OpStats().Ops(); ops != 0 {
		t.Errorf("fresh recovered map reports %d ops", ops)
	}
}

func TestPersistSnapshotPlusTailEquivalence(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(1)))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	want := map[string]uint64{}
	put := func(k string, v uint64) {
		th.Put(k, word.FromUint(v))
		want[k] = v
	}
	for i := 0; i < 300; i++ {
		put(fmt.Sprintf("pre-%04d", i), uint64(i))
	}
	if err := m.Save(); err != nil { // BGSAVE: rotate + snapshot + prune
		t.Fatalf("Save: %v", err)
	}
	for i := 0; i < 200; i++ { // tail past the snapshot
		put(fmt.Sprintf("post-%04d", i), uint64(i)*7)
	}
	for i := 0; i < 300; i += 2 { // tail deletes of snapshotted keys
		k := fmt.Sprintf("pre-%04d", i)
		th.Delete(k)
		delete(want, k)
	}
	live := contents(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(valEngine(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	recovered := contents(t, m2)
	requireEqual(t, recovered, want)
	requireEqual(t, recovered, live) // recovered map == live map contents
}

func TestPersistAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir,
		WithPersistence(dir, wal.EveryN(1)), WithCompactAfter(4096), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	want := map[string]uint64{}
	// Enough overwrite churn to cross the threshold several times.
	for round := 0; round < 50; round++ {
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("churn-%03d", i)
			v := uint64(round*1000 + i)
			th.Put(k, word.FromUint(v))
			want[k] = v
		}
	}
	if err := m.PersistErr(); err != nil {
		t.Fatalf("PersistErr: %v", err)
	}
	// The compaction runs asynchronously; wait for its snapshot before
	// shutting down.
	deadline := time.Now().Add(10 * time.Second)
	snaps := 0
	for snaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot after %d bytes of churn against a 4k threshold", m.LogSize())
		}
		time.Sleep(5 * time.Millisecond)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "snap-") {
				snaps++
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(valEngine(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	requireEqual(t, contents(t, m2), want)
}

// TestPersistCrashTruncatedTail cuts the log at random
// byte offsets and asserts recovery lands exactly on the state of the
// surviving record prefix — the records themselves are the oracle.
func TestPersistCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(1)), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	r := rng.New(0xDEAD)
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%03d", r.Intn(64))
		switch r.Intn(10) {
		case 0:
			th.Delete(k)
		case 1:
			th.CompareAndSwap(k, word.FromUint(r.Next()>>3), word.FromUint(r.Next()>>3))
		default:
			th.Put(k, word.FromUint(r.Next()>>3))
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := ""
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			logPath = filepath.Join(dir, e.Name())
		}
	}
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	cuts := 40
	if testing.Short() {
		cuts = 8
	}
	for c := 0; c < cuts; c++ {
		cut := int(r.Intn(uint64(len(full)) + 1))
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(logPath)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := replayPrefix(t, full[:cut])
		m2, err := Open(valEngine(t), sub)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		requireEqual(t, contents(t, m2), want)
		m2.Close()
	}
}

// replayPrefix folds the decodable record prefix of one log file into a
// plain map — the reference recovery semantics.
func replayPrefix(t *testing.T, data []byte) map[string]uint64 {
	t.Helper()
	const hdr = wal.LogHeaderSize
	want := map[string]uint64{}
	if len(data) < hdr {
		return want
	}
	p := data[hdr:]
	for len(p) > 0 {
		rec, n, err := wal.DecodeRecord(p)
		if err != nil {
			break
		}
		switch rec.Op {
		case wal.OpDelete:
			delete(want, string(rec.Key))
		case wal.OpSwap2:
			want[string(rec.Key)] = rec.Val >> 2
			want[string(rec.Key2)] = rec.Val2 >> 2
		default:
			want[string(rec.Key)] = rec.Val >> 2
		}
		p = p[n:]
	}
	return want
}

// TestPersistCrashCorruptRecord damages one byte mid-log (torn or
// bit-rotted record) and asserts prefix-consistent recovery.
func TestPersistCrashCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(1)), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	for i := 0; i < 100; i++ {
		th.Put(fmt.Sprintf("k%03d", i), word.FromUint(uint64(i)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var logPath string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			logPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	offsets := 20
	if testing.Short() {
		offsets = 5
	}
	for c := 0; c < offsets; c++ {
		off := wal.LogHeaderSize + int(r.Intn(uint64(len(data)-wal.LogHeaderSize)))
		mut := bytes.Clone(data)
		mut[off] ^= 0x80
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(logPath)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		want := replayPrefix(t, mut)
		m2, err := Open(valEngine(t), sub)
		if err != nil {
			t.Fatalf("corrupt @%d: Open: %v", off, err)
		}
		requireEqual(t, contents(t, m2), want)
		m2.Close()
	}
}

// TestPersistTornLength overwrites the last record's length field with
// a huge value — a classic torn header — and asserts the tail is cut.
func TestPersistTornLength(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(1)), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	for i := 0; i < 10; i++ {
		th.Put(fmt.Sprintf("k%d", i), word.FromUint(uint64(i)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var logPath string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			logPath = filepath.Join(dir, e.Name())
		}
	}
	data, _ := os.ReadFile(logPath)
	// Find the last record's offset by walking the stream.
	p, last := data[wal.LogHeaderSize:], -1
	off := wal.LogHeaderSize
	for len(p) > 0 {
		_, n, err := wal.DecodeRecord(p)
		if err != nil {
			break
		}
		last = off
		off += n
		p = p[n:]
	}
	if last < 0 {
		t.Fatal("no records found")
	}
	copy(data[last+4:last+8], []byte{0xff, 0xff, 0xff, 0x00}) // bodyLen ~16M
	os.WriteFile(logPath, data, 0o644)

	want := replayPrefix(t, data)
	if len(want) != 9 {
		t.Fatalf("oracle kept %d records, want 9", len(want))
	}
	m2, err := Open(valEngine(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	requireEqual(t, contents(t, m2), want)
}

// TestPersistZeroAllocHotPaths pins the acceptance criterion: with
// persistence enabled under the non-blocking fsync policies, the
// steady-state update (SET) and CAS paths stay allocation-free.
func TestPersistZeroAllocHotPaths(t *testing.T) {
	for _, pol := range []wal.Policy{wal.EveryN(64), wal.Interval(250 * time.Millisecond)} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(valEngine(t), dir, WithPersistence(dir, pol))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			th := m.NewThread()
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("hot-%04d", i)
				th.Put(keys[i], word.FromUint(uint64(i)))
			}
			// Warm the log buffers to their steady capacity.
			for i := 0; i < 2000; i++ {
				th.Put(keys[i%len(keys)], word.FromUint(uint64(i)))
			}
			i := 0
			if n := testing.AllocsPerRun(300, func() {
				th.Put(keys[i%len(keys)], word.FromUint(uint64(i)))
				i++
			}); n != 0 {
				t.Errorf("persistent Put(update) allocates %.2f/op, want 0", n)
			}
			if n := testing.AllocsPerRun(300, func() {
				th.Update(keys[i%len(keys)], word.FromUint(uint64(i)))
				i++
			}); n != 0 {
				t.Errorf("persistent Update allocates %.2f/op, want 0", n)
			}
			k := keys[0]
			cur, _ := th.Get(k)
			if n := testing.AllocsPerRun(300, func() {
				next := word.FromUint(cur.Uint() + 1)
				if th.CompareAndSwap(k, cur, next) {
					cur = next
				}
			}); n != 0 {
				t.Errorf("persistent CAS allocates %.2f/op, want 0", n)
			}
		})
	}
}

// TestPersistSwap2CrossShardAtomic: a Swap2 whose keys live on
// different shards is durable as a unit. The pairs are snapshotted with
// distinct values, each pair is swapped once, and the log is cut at
// seeded random byte offsets: every recovered pair holds either both
// old values or both swapped ones, never one of each.
func TestPersistSwap2CrossShardAtomic(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.EveryN(1)), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	type pair struct {
		k1, k2 string
		v1, v2 uint64
	}
	var pairs []pair
	lone := ""
	for i := 0; len(pairs) < 64; i++ {
		k := fmt.Sprintf("p%04d", i)
		if lone == "" {
			lone = k
			continue
		}
		if m.hash(k)&m.shardMask == m.hash(lone)&m.shardMask {
			continue
		}
		n := uint64(len(pairs))
		pairs = append(pairs, pair{lone, k, 2*n + 1, 2*n + 2})
		lone = ""
	}
	for _, p := range pairs {
		th.Put(p.k1, word.FromUint(p.v1))
		th.Put(p.k2, word.FromUint(p.v2))
	}
	// The snapshot holds the old values; the live log holds the swaps.
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !th.Swap2(p.k1, p.k2) {
			t.Fatalf("Swap2(%q, %q) failed", p.k1, p.k2)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	files := map[string][]byte{}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	r := rng.New(0x5A7E)
	cuts := 20
	if testing.Short() {
		cuts = 5
	}
	for c := 0; c < cuts; c++ {
		sub := t.TempDir()
		for name, data := range files {
			if strings.HasPrefix(name, "wal-") {
				data = data[:r.Intn(uint64(len(data))+1)]
			}
			if err := os.WriteFile(filepath.Join(sub, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m2, err := Open(valEngine(t), sub)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", c, err)
		}
		got := contents(t, m2)
		m2.Close()
		for _, p := range pairs {
			a, b := got[p.k1], got[p.k2]
			if (a != p.v1 || b != p.v2) && (a != p.v2 || b != p.v1) {
				t.Fatalf("cut %d: pair (%q, %q) recovered as (%d, %d), want (%d, %d) or (%d, %d)",
					c, p.k1, p.k2, a, b, p.v1, p.v2, p.v2, p.v1)
			}
		}
	}
}

// syncerProbe counts the log syncer's writes and fsyncs and can hold
// the syncer inside one write.
type syncerProbe struct {
	writes, syncs atomic.Int64
	hold          atomic.Bool // the next Write blocks until release closes
	entered       chan struct{}
	release       chan struct{}
}

type probedFile struct {
	wal.File
	p *syncerProbe
}

func (f probedFile) Write(b []byte) (int, error) {
	f.p.writes.Add(1)
	if f.p.hold.CompareAndSwap(true, false) {
		f.p.entered <- struct{}{}
		<-f.p.release
	}
	return f.File.Write(b)
}

func (f probedFile) Sync() error {
	f.p.syncs.Add(1)
	return f.File.Sync()
}

// TestPersistGroupCommitOneWriteOneSync: one group commit over writes
// that landed on every shard is one file write and one fsync. The
// syncer is held inside an earlier write while the records accumulate,
// so a single round picks them all up.
func TestPersistGroupCommitOneWriteOneSync(t *testing.T) {
	dir := t.TempDir()
	probe := &syncerProbe{entered: make(chan struct{}), release: make(chan struct{})}
	m, err := Open(valEngine(t), dir, WithPersistence(dir, wal.Interval(time.Hour)), WithShards(8),
		WithLogWrap(func(f wal.File) wal.File { return probedFile{f, probe} }))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	th := m.NewThread()
	probe.hold.Store(true)
	th.Put("first", word.FromUint(1))
	select {
	case <-probe.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the syncer never wrote the first record")
	}
	writes0, syncs0 := probe.writes.Load(), probe.syncs.Load()
	hit := map[uint64]bool{}
	for i := 0; len(hit) < m.Shards(); i++ {
		k := fmt.Sprintf("k%03d", i)
		th.Put(k, word.FromUint(uint64(i)))
		hit[m.hash(k)&m.shardMask] = true
	}
	close(probe.release)
	if err := m.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	if w, s := probe.writes.Load()-writes0, probe.syncs.Load()-syncs0; w != 1 || s != 1 {
		t.Fatalf("group commit over %d shards made %d writes and %d fsyncs, want 1 and 1", m.Shards(), w, s)
	}
}
