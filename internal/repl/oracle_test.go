// The replication consistency oracle: seedable model-based checking of
// the two guarantees DESIGN.md promises for replicas.
//
//   - Prefix consistency: at every batch boundary, the whole replica
//     equals the fold of one prefix of the primary's log — the prefix
//     ending at the replica's applied offset. The log file itself is the
//     history: the checker decodes it up to that offset.
//   - Monotonic reads: a reader pinned to one replica never observes a
//     key's version going backwards.
//   - Atomic SWAP2: a replica applies a swap record in one commit, so a
//     replica MGET of a swapped pair never sees one key swapped and the
//     other not.
//
// Writers own disjoint key spaces (uniform + zipf pickers within each),
// so per-key version order equals per-key WAL order — racing writers on
// one key may persist in either order (the documented durability
// trade), which would make "version went backwards" an unusable signal.
// Every written value is key-unique: value = version counter for that
// key, strictly increasing.
package repl

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

const oracleSeed = 0x0D15EA5E

// logModel folds the primary's generation-1 log file, read
// incrementally, into the state a replica must hold at each applied
// offset.
type logModel struct {
	f     *os.File
	off   int64
	state map[string]uint64 // key → version payload (word >> 2)
}

// advance folds the records in [m.off, to) into the state. The range
// ends on an applied record boundary, so it holds whole records only.
func (m *logModel) advance(to int64) error {
	if to < m.off {
		return fmt.Errorf("applied offset went back from %d to %d", m.off, to)
	}
	buf := make([]byte, to-m.off)
	if _, err := m.f.ReadAt(buf, m.off); err != nil {
		return fmt.Errorf("reading the log at %d: %w", m.off, err)
	}
	for p := buf; len(p) > 0; {
		rec, n, err := wal.DecodeRecord(p)
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", to-int64(len(p)), err)
		}
		switch rec.Op {
		case wal.OpDelete:
			delete(m.state, string(rec.Key))
		case wal.OpSwap2:
			m.state[string(rec.Key)] = rec.Val >> 2
			m.state[string(rec.Key2)] = rec.Val2 >> 2
		default:
			m.state[string(rec.Key)] = rec.Val >> 2
		}
		p = p[n:]
	}
	m.off = to
	return nil
}

// oracleWriter owns one key space and mirrors every operation, so each
// primary result is also exactly checkable (disjoint keys ⇒ isolated
// maps).
type oracleWriter struct {
	th     *shardmap.Thread
	keys   []string
	mirror map[string]uint64 // expected primary state (version payloads)
	next   map[string]uint64 // next version per key (never reused)
	r      *rng.State
	zipf   *rand.Zipf
}

func newOracleWriter(th *shardmap.Thread, id, nkeys int, seed int64) *oracleWriter {
	w := &oracleWriter{
		th:     th,
		keys:   make([]string, nkeys),
		mirror: map[string]uint64{},
		next:   map[string]uint64{},
		r:      rng.New(uint64(seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
	}
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("w%d-%05d", id, i)
		w.next[w.keys[i]] = 1
	}
	w.zipf = rand.NewZipf(rand.New(rand.NewSource(seed+int64(id))), 1.1, 1, uint64(nkeys-1))
	return w
}

func (w *oracleWriter) pick() string {
	if w.r.Intn(2) == 0 {
		return w.keys[w.r.Intn(uint64(len(w.keys)))]
	}
	return w.keys[w.zipf.Uint64()]
}

func (w *oracleWriter) step(t *testing.T, step int) {
	k := w.pick()
	switch w.r.Intn(10) {
	case 0, 1: // delete
		_, want := w.mirror[k]
		if got := w.th.Delete(k); got != want {
			t.Errorf("step %d: Delete(%q) = %v, mirror says %v", step, k, got, want)
		}
		delete(w.mirror, k)
	case 2, 3: // CAS from the mirrored value (hit) or a bogus one (miss)
		cur, ok := w.mirror[k]
		old := cur
		if !ok || w.r.Intn(4) == 0 {
			old = 1 << 40 // never a real version
		}
		v := w.next[k]
		w.next[k] = v + 1
		want := ok && old == cur
		if got := w.th.CompareAndSwap(k, word.FromUint(old), word.FromUint(v)); got != want {
			t.Errorf("step %d: CAS(%q) = %v, mirror says %v", step, k, got, want)
		}
		if want {
			w.mirror[k] = v
		}
	default: // put
		v := w.next[k]
		w.next[k] = v + 1
		_, had := w.mirror[k]
		if got := w.th.Put(k, word.FromUint(v)); got != !had {
			t.Errorf("step %d: Put(%q) = %v, mirror says %v", step, k, got, !had)
		}
		w.mirror[k] = v
	}
}

// dump reads a map's contents through a cached thread.
func dumpMap(th *shardmap.Thread) map[string]uint64 {
	got := map[string]uint64{}
	th.Range(func(k string, v shardmap.Value) bool {
		got[k] = v.Uint()
		return true
	})
	return got
}

// TestOracleReplication is the acceptance-criteria oracle: mixed writes
// on the primary, concurrent reads on 2 replicas, a prefix check of
// each whole replica at every batch boundary, monotonic-read and
// untorn-swap checking throughout, exact convergence at the end. ≥1000
// iterations per writer even under -short.
func TestOracleReplication(t *testing.T) {
	const writers = 3
	const nkeys = 96
	steps := 6000
	if testing.Short() {
		steps = 1200
	}
	t.Logf("seed %#x, %d writers × %d steps", oracleSeed, writers, steps)

	dir := t.TempDir()
	e, err := core.NewChecked(core.Config{Layout: core.LayoutVal, MaxThreads: writers + 8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := shardmap.Open(e, dir,
		shardmap.WithPersistence(dir, wal.EveryN(4)),
		shardmap.WithShards(2), shardmap.WithInitialBuckets(8),
		shardmap.WithCompactAfter(-1)) // single generation: the file is the full history
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(m, WithHeartbeat(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go src.Serve(ln)
	defer func() {
		src.Close()
		m.Close()
	}()

	// Each replica checks itself from its applier goroutine, which is
	// the only writer of its cursor and, between batches, of its map.
	reps := make([]*Replica, 2)
	var checks atomic.Int64
	for i := range reps {
		rm := shardmap.New(valEngine(t), shardmap.WithShards(2), shardmap.WithInitialBuckets(8))
		f, err := os.Open(filepath.Join(dir, wal.LogName(1)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		model := &logModel{f: f, off: wal.LogHeaderSize, state: map[string]uint64{}}
		r := NewReplica(rm, ln.Addr().String(), WithReadTimeout(5*time.Second))
		th := rm.NewThread()
		r.onBatch = func() {
			if t.Failed() {
				return
			}
			if r.cur.Gen != 1 {
				t.Errorf("replica %d: oracle expects a single generation, cursor is at %d", i, r.cur.Gen)
				return
			}
			if n := r.fullSyncs.Load(); n != 1 {
				t.Errorf("replica %d: %d full syncs; the stream must bootstrap once and resume after that", i, n)
				return
			}
			if err := model.advance(r.cur.Off); err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			if got := dumpMap(th); !mapsEqual(got, model.state) {
				requireEqualMaps(t, got, model.state,
					fmt.Sprintf("replica %d vs the log prefix ending at offset %d", i, r.cur.Off))
				return
			}
			checks.Add(1)
		}
		go r.Run()
		reps[i] = r
	}
	defer func() {
		for _, r := range reps {
			r.Close()
		}
	}()
	// Bootstrap from the empty primary before any write, so the
	// snapshot is empty and every later state is a pure log prefix.
	for i, r := range reps {
		deadline := time.Now().Add(30 * time.Second)
		for r.Status().State != "streaming" {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never started streaming: %+v", i, r.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Writers.
	var wg sync.WaitGroup
	var stop atomic.Bool
	ws := make([]*oracleWriter, writers)
	for i := range ws {
		ws[i] = newOracleWriter(m.NewThread(), i, nkeys, oracleSeed)
	}
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *oracleWriter) {
			defer wg.Done()
			for s := 0; s < steps && !t.Failed(); s++ {
				w.step(t, s)
				if s%40 == 39 {
					// Pace the run so the stream stays live across many
					// batches instead of finishing in one burst.
					time.Sleep(time.Millisecond)
				}
			}
		}(i, w)
	}

	// A swapper owns a few key pairs, each holding two distinct values,
	// and swaps them. Its pairs are written only by Swap2 once created.
	const pairs = 4
	pairKeys := func(i int) []string { return []string{fmt.Sprintf("p%d-a", i), fmt.Sprintf("p%d-b", i)} }
	pairVal := func(i, j int) uint64 { return uint64(10*i + j + 1) }
	swapMirror := map[string]uint64{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := m.NewThread()
		for i := 0; i < pairs; i++ {
			for j, k := range pairKeys(i) {
				th.Put(k, word.FromUint(pairVal(i, j)))
				swapMirror[k] = pairVal(i, j)
			}
		}
		for s := 0; s < steps && !t.Failed(); s++ {
			ks := pairKeys(s % pairs)
			if !th.Swap2(ks[0], ks[1]) {
				t.Errorf("swap %d: Swap2(%q, %q) found a key absent", s, ks[0], ks[1])
				return
			}
			swapMirror[ks[0]], swapMirror[ks[1]] = swapMirror[ks[1]], swapMirror[ks[0]]
			if s%40 == 39 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Monotonic readers: one per replica, over every writer's key
	// space, tracking each key's highest observed version.
	var rwg sync.WaitGroup
	var allKeys []string
	for _, w := range ws {
		allKeys = append(allKeys, w.keys...)
	}
	for ri, r := range reps {
		rwg.Add(1)
		go func(ri int, th *shardmap.Thread) {
			defer rwg.Done()
			seen := map[string]uint64{}
			r := rng.New(oracleSeed ^ uint64(ri+100))
			for !stop.Load() && !t.Failed() {
				k := allKeys[r.Intn(uint64(len(allKeys)))]
				if v, ok := th.Get(k); ok {
					if prev, had := seen[k]; had && v.Uint() < prev {
						t.Errorf("replica %d: non-monotonic read of %q: %d after %d", ri, k, v.Uint(), prev)
						return
					}
					seen[k] = v.Uint()
				}
			}
		}(ri, r.Map().NewThread())
	}
	// Swap readers: one per replica, MGETting a pair at a time. Once
	// both keys exist the pair must hold its two values, one each.
	for ri, r := range reps {
		rwg.Add(1)
		go func(ri int, th *shardmap.Thread) {
			defer rwg.Done()
			vals := make([]shardmap.Value, 2)
			found := make([]bool, 2)
			for n := 0; !stop.Load() && !t.Failed(); n++ {
				i := n % pairs
				th.GetBatch(pairKeys(i), vals, found)
				if !found[0] || !found[1] {
					continue
				}
				a, b := vals[0].Uint(), vals[1].Uint()
				if a == b || a+b != pairVal(i, 0)+pairVal(i, 1) || (a != pairVal(i, 0) && a != pairVal(i, 1)) {
					t.Errorf("replica %d: MGET of pair %d read (%d, %d): a torn SWAP2", ri, i, a, b)
					return
				}
			}
		}(ri, r.Map().NewThread())
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce and converge: every replica must equal the primary, which
	// must equal the union of the writer mirrors.
	want := map[string]uint64{}
	for _, w := range ws {
		for k, v := range w.mirror {
			want[k] = v
		}
	}
	for k, v := range swapMirror {
		want[k] = v
	}
	requireEqualMaps(t, dumpMap(m.NewThread()), want, "primary vs mirrors")
	pos := src.Position()
	for ri, r := range reps {
		if !r.WaitApplied(pos, 30*time.Second) {
			t.Fatalf("replica %d stuck at %d, primary at %d", ri, r.AppliedPos(), pos)
		}
		requireEqualMaps(t, dumpMap(r.Map().NewThread()), want, fmt.Sprintf("replica %d final", ri))
	}
	if checks.Load() == 0 {
		t.Error("the run finished without a single prefix check")
	}
	t.Logf("%d prefix checks at batch boundaries", checks.Load())
}
