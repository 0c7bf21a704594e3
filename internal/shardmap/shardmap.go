// Package shardmap implements a sharded, resizable, string-keyed
// transactional hash map over the SpecTM engine — the repository's first
// "serves traffic" workload, built so that every hot-path operation is a
// statically sized short transaction:
//
//	Get                ShortRO2 over (node.next, node.val)
//	GetEach (n keys)   n independent Gets under one epoch pin
//	Touch (n keys)     no transaction: walks every key's chain in rounds
//	                   (touchChains), so the operations that follow on
//	                   those keys find their nodes cached
//	Put (update)       ShortRO1 + LockRead → ShortRO1RW1 combined commit
//	Put (insert)       chain walk of Tx_Single_Reads + one Tx_Single_CAS
//	                   (ShortRW2 over (pred link, entry.hint) with the
//	                   ordered index; see putLoop)
//	Delete             ShortRW2 over (node.next, prev link): mark + unlink
//	                   (ShortRW3 with the ordered index's hint word; see del)
//	CompareAndSwap     ShortRO2 + Upgrade2 → ShortRO2RW1 combined commit
//	Swap2              ShortRO2 + LockRead×2 → ShortRO2RW2 combined commit
//	GetBatch (2 keys)  ShortRO4 over both (next, val) pairs
//	GetBatch (n keys)  one full transaction (read-only), after walking
//	                   every key's chain in rounds (touchChains)
//
// Only the per-shard incremental resize falls back to full transactions:
// each bucket chain is migrated in one ordinary transaction, so growth
// never stops concurrent readers or writers.
//
// # Layout
//
// Keys hash once (hash/maphash); the low bits pick a cache-line-padded
// shard, the next bits pick a bucket in the shard's table. Buckets are
// sorted chains of arena nodes ordered by (hash, key), exactly like the
// paper's §3 hash table, with bit 1 of every link reserved as the
// "deleted" mark. Every transactional word of the map — bucket heads,
// node links and values, index-entry cells — is an 8-byte core.Word,
// which binds no meta-data under LayoutVal and the shared orec table
// under LayoutOrec; a LayoutTVar engine is rejected (ErrTVarLayout).
// A node carries its key's first 16 bytes as two words next to the
// hash, so a chain step orders and a hit matches inside the node (see
// node.cmp). A marked link always means "this node has been
// atomically unlinked (removed or migrated); restart the operation" —
// restarting re-reads the shard's table pointer, which is how operations
// discover an in-progress resize.
//
// # Resize
//
// A shard grows by doubling its bucket table. The resizing thread
// publishes {cur: new, old: current} and then migrates one old bucket at
// a time: a single full transaction copies the chain's nodes into the two
// split target buckets of the new table, marks every old link, and
// replaces the old bucket head with a marked-null sentinel (an empty
// bucket needs only the sentinel, one CAS). Operations
// route each key to the old table until its bucket's sentinel appears, so
// a key is always owned by exactly one table and duplicate inserts across
// tables are impossible; stale operations that raced the migration fail
// their CAS/validation against the marked links and restart.
package shardmap

import (
	"errors"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/pad"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// Value re-exports the transactional word encoding stored in the map.
// Encode integer payloads with word.FromUint (spectm.FromUint); raw
// values with the low two bits set are rejected by the engine.
type Value = word.Value

// enc packs an arena handle into a link value.
func enc(h arena.Handle) word.Value { return word.FromUint(uint64(h)) }

// dec extracts the handle from a link, ignoring the mark bit.
func dec(v word.Value) arena.Handle { return arena.Handle(v.WithoutMark().Uint()) }

// Stable identity spaces for orec hashing (see stmset for the scheme).
// Node cells pack (shard tag, arena handle, field); bucket cells take
// idBucketBase plus a per-table sequence number.
const (
	idBucketBase = uint64(1) << 52
	idNodeShift  = 2 // handle << 2 | field
	idShardShift = 55

	fieldNext = 0
	fieldVal  = 1
)

// maxLoad is the average chain length that triggers a shard resize. At
// 1 a shard doubles once it holds more keys than buckets, so a chain
// averages 0.5–1 node and a hit visits about 1.4 (TestChainLength).
const maxLoad = 1

// node is one key/value pair. val and next are transactional words;
// everything else is immutable after publication. p0 and p1 are the
// key's first 16 bytes (prefixWords), so a chain step compares inside
// the node and reads the separately allocated key bytes only past byte
// 16 or on a 64-bit hash tie (see cmp). A node is 64 B, so in its
// page-aligned arena chunk it is exactly one cache line
// (TestNodeLayout).
type node struct {
	hash   uint64
	key    string
	p0, p1 uint64 // prefixWords(key)
	val    core.Word
	next   core.Word
	ent    arena.Handle // the key's index entry (ordered maps; see ordered.go)
}

// cmp places node n against the key (h, key), whose prefix words are
// p0 and p1, in chain order — by hash, then by key: negative when n
// comes first, zero when n holds key, positive when n comes after. The
// hash, the prefix words and the key's length sit in the node; the key
// bytes are read only when the keys are longer than 16 bytes or, on a
// 64-bit hash tie, share their first 16. Comparing prefix words first
// orders exactly as comparing keys does (see prefixWords).
func (n *node) cmp(h, p0, p1 uint64, key string) int {
	switch {
	case n.hash != h:
		if n.hash < h {
			return -1
		}
		return 1
	case n.p0 != p0:
		if n.p0 < p0 {
			return -1
		}
		return 1
	case n.p1 != p1:
		if n.p1 < p1 {
			return -1
		}
		return 1
	case len(n.key) == len(key) && (len(key) <= 16 || n.key[16:] == key[16:]):
		return 0
	case n.key < key:
		return -1
	}
	return 1
}

// table is one bucket array generation of a shard.
type table struct {
	buckets []core.Word
	mask    uint64
	idBase  uint64 // orec identity base for bucket links
}

// tables is a shard's current view: old is non-nil only during a resize.
type tables struct {
	cur *table
	old *table
}

// shard is one stripe of the map. The trailing pad keeps neighboring
// shards' hot fields (state pointer, size counter, arena cursor) off each
// other's cache lines.
type shard struct {
	state atomic.Pointer[tables]
	size  atomic.Uint64
	a     *arena.Arena[node]
	idTag uint64
	mu    sync.Mutex // serializes resizers; never taken on the hot path

	_ [pad.CacheLine]byte
}

// Option configures a Map under construction.
type Option func(*config)

type config struct {
	shards  int
	buckets int
	ordered bool // maintain the ordered index (see ordered.go)

	// persistence (see persist.go)
	dir          string
	policy       wal.Policy
	compactAfter int64
	wrapFile     func(wal.File) wal.File
}

// WithShards sets the number of shards (rounded up to a power of two).
// The default is the smallest power of two ≥ GOMAXPROCS, at least 8.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithInitialBuckets sets each shard's initial bucket count (rounded up
// to a power of two, default 64). Shards grow past it on demand.
func WithInitialBuckets(n int) Option { return func(c *config) { c.buckets = n } }

// Map is a sharded transactional hash map from string keys to Values.
// Construct with New (or Open, for a persistent map); each worker
// goroutine attaches a Thread with NewThread and performs all
// operations through it.
type Map struct {
	e         *core.Engine
	seed      maphash.Seed
	shards    []shard
	shardMask uint64
	shardBits uint
	idSeq     atomic.Uint64 // bucket identity allocator

	thrMu       sync.Mutex    // guards thrCounters
	thrCounters []*opCounters // one slot set per attached Thread

	// The ordered index (nil without WithOrdered; see ordered.go), set
	// before the map is published.
	ordered *olist

	// Durability (nil without WithPersistence; see persist.go). wal is
	// written once before the map is published, so hot paths read it
	// without synchronization.
	wal        *wal.Log
	replay     wal.ReplayStats // what Open's recovery found
	saveMu     sync.Mutex      // serializes Save/Snapshot and guards persistThr
	persistThr *Thread
	saveErr    atomic.Value // savedErr: outcome of the last auto-compaction
}

// ceilPow2 rounds n up to a power of two (min 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrTVarLayout is returned by Open, and New panics with it, for an
// engine with LayoutTVar: the map's words are 8-byte core.Words, which
// have no room for the orec that layout co-locates with every word.
var ErrTVarLayout = errors.New("shardmap: the map needs a LayoutVal or LayoutOrec engine, not LayoutTVar")

// New creates a map over engine e. All Threads of one Map share e's
// meta-data, so map operations compose with any other transaction on the
// same engine. New panics on a LayoutTVar engine (ErrTVarLayout) and
// when a persistence option fails to open its directory (a
// configuration error); use Open to handle either as an error.
func New(e *core.Engine, opts ...Option) *Map {
	m, err := newMap(e, opts...)
	if err != nil {
		panic(err.Error())
	}
	return m
}

func newMap(e *core.Engine, opts ...Option) (*Map, error) {
	if e.Layout() == core.LayoutTVar {
		return nil, ErrTVarLayout
	}
	cfg := config{buckets: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
		if cfg.shards < 8 {
			cfg.shards = 8
		}
	}
	if cfg.buckets <= 0 {
		cfg.buckets = 64
	}
	ns := ceilPow2(cfg.shards)
	nb := ceilPow2(cfg.buckets)
	m := &Map{
		e:         e,
		seed:      maphash.MakeSeed(),
		shards:    make([]shard, ns),
		shardMask: uint64(ns - 1),
	}
	for m.shardBits = 0; 1<<m.shardBits < ns; m.shardBits++ {
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.a = arena.New[node]()
		sh.idTag = (uint64(i) + 1) << idShardShift
		st := &tables{cur: m.newTable(nb)}
		sh.state.Store(st)
	}
	if cfg.ordered {
		m.ordered = newOlist(m)
	}
	if cfg.dir != "" {
		if err := m.openPersistence(cfg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newTable allocates a bucket array with a fresh identity range. Every
// head starts as the zero Word, which holds word.Null.
func (m *Map) newTable(n int) *table {
	return &table{
		buckets: make([]core.Word, n),
		mask:    uint64(n - 1),
		idBase:  idBucketBase + m.idSeq.Add(uint64(n)) - uint64(n),
	}
}

// Engine returns the engine the map is bound to.
func (m *Map) Engine() *core.Engine { return m.e }

// Shards returns the map's shard count (after power-of-two rounding).
func (m *Map) Shards() int { return len(m.shards) }

// Len returns the number of keys. The count is a live sum over shard
// counters, not an atomic snapshot.
func (m *Map) Len() int {
	var n uint64
	for i := range m.shards {
		n += m.shards[i].size.Load()
	}
	return int(n)
}

// hash computes the key's 64-bit hash.
func (m *Map) hash(key string) uint64 { return maphash.String(m.seed, key) }

// shardOf picks the key's shard.
func (m *Map) shardOf(h uint64) *shard { return &m.shards[h&m.shardMask] }

// bidx is the key's bucket index within a table (the shard bits are
// skipped so bucket striping stays independent of shard striping).
func (m *Map) bidx(t *table, h uint64) uint64 { return (h >> m.shardBits) & t.mask }

// Thread is a per-goroutine handle on a Map. A Thread must not be shared
// between goroutines; create one per worker with NewThread.
type Thread struct {
	m   *Map
	t   *core.Thr
	ops opCounters

	// migration scratch, reused across resizes
	mchain []arena.Handle
	mnext  []word.Value
	mvals  []word.Value
	mcopy  []arena.Handle

	// Range scratch: one bucket's chain, buffered per attempt
	rkeys []string
	rvals []word.Value

	// GetEach/GetBatch scratch: the keys' hashes and each chain walk's
	// next link (touchChains)
	bhash []uint64
	bhead []uint64

	// Scan scratch: one page of candidate entries and the hints read
	// with them (see Scan)
	sents  [scanPage]arena.Handle
	shints [scanPage]word.Value

	// sink consumes the words a touch loads
	sink uint64

	// ordered-index search scratch: per-level predecessor link and the
	// successor value it held, and the level-0 predecessor entry
	// (olist.search)
	ipreds [idxMaxLevel]core.Var
	isuccs [idxMaxLevel]word.Value
	ipred0 arena.Handle
}

// NewThread registers a worker with the map's engine.
func (m *Map) NewThread() *Thread { return m.AttachThread(m.e.Register()) }

// AttachThread wraps an existing engine thread (registered on the map's
// engine) so map operations interleave with the caller's other
// transactions on the same descriptor.
func (m *Map) AttachThread(t *core.Thr) *Thread {
	x := &Thread{m: m, t: t}
	m.registerCounters(&x.ops)
	return x
}

// Thr exposes the underlying engine thread (stats, epochs).
func (x *Thread) Thr() *core.Thr { return x.t }

// conflict handles one conflicted attempt of a point operation: count it
// and wait out the engine's randomized linear backoff.
func (x *Thread) conflict(attempt int) {
	x.ops.conflicts.Add(1)
	x.t.Backoff(attempt)
}

// bucketVar returns the Var of bucket b's head link in table tb.
func (m *Map) bucketVar(tb *table, b uint64) core.Var {
	return m.e.WordVar(&tb.buckets[b], tb.idBase+b)
}

// nextVar returns the Var of a node's chain link.
func (m *Map) nextVar(sh *shard, h arena.Handle, n *node) core.Var {
	return m.e.WordVar(&n.next, sh.idTag|uint64(h)<<idNodeShift|fieldNext)
}

// valVar returns the Var of a node's value word.
func (m *Map) valVar(sh *shard, h arena.Handle, n *node) core.Var {
	return m.e.WordVar(&n.val, sh.idTag|uint64(h)<<idNodeShift|fieldVal)
}

// route resolves which table currently owns h's bucket: the old table
// until its bucket has been migrated (marked-null sentinel head), the
// current one afterwards (and in the steady state).
func (x *Thread) route(sh *shard, h uint64) *table {
	st := sh.state.Load()
	if st.old != nil {
		if !x.t.SingleRead(x.m.bucketVar(st.old, x.m.bidx(st.old, h))).Marked() {
			return st.old
		}
	}
	return st.cur
}

// search walks key's chain in tb with single-location reads. It returns
// the link Var to update for an insert/remove, that link's observed
// value, the candidate node and whether the key was found. ok=false means
// the walk crossed a marked link — an atomically unlinked (removed or
// migrated) node or a migrated bucket — and the operation must restart
// from route.
func (x *Thread) search(sh *shard, tb *table, h uint64, key string) (prev core.Var, link word.Value, cur arena.Handle, found, ok bool) {
	p0, p1 := prefixWords(key)
	prev = x.m.bucketVar(tb, x.m.bidx(tb, h))
	link = x.t.SingleRead(prev)
	for {
		if link.Marked() {
			return prev, link, 0, false, false
		}
		if link.IsNull() {
			return prev, word.Null, 0, false, true
		}
		cur = dec(link)
		n := sh.a.Get(cur)
		if c := n.cmp(h, p0, p1, key); c >= 0 {
			return prev, link, cur, c == 0, true
		}
		prev = x.m.nextVar(sh, cur, n)
		link = x.t.SingleRead(prev)
	}
}

// Get returns the value stored for key. The (liveness, value) pair is
// read with one 2-location read-only short transaction, so a concurrent
// update, removal or migration can never produce a torn observation.
//
//spectm:noalloc
func (x *Thread) Get(key string) (Value, bool) {
	v, ok := x.get(key)
	count(&x.ops.gets, &x.ops.getHits, ok)
	return v, ok
}

func (x *Thread) get(key string) (Value, bool) {
	h := x.m.hash(key)
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	return x.lookup(key, h)
}

// GetEach runs len(keys) independent Gets under one epoch pin: vals[i]
// and found[i] report key i as Get(keys[i]) would. vals and found must
// be at least as long as keys. Each key is read with its own ShortRO2
// at its own linearization point, in order, so the results are not one
// snapshot; GetBatch is the atomic multi-key read. GetEach does not walk
// the chains ahead of the lookups: a caller that wants the keys' cache
// misses overlapped calls Touch first, with these keys and any others
// it is about to use.
//
//spectm:noalloc
func (x *Thread) GetEach(keys []string, vals []Value, found []bool) {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("shardmap: GetEach needs vals/found at least as long as keys")
	}
	x.t.Epoch.Enter()
	x.hashKeys(keys)
	for i, key := range keys {
		vals[i], found[i] = x.lookup(key, x.bhash[i])
		count(&x.ops.gets, &x.ops.getHits, found[i])
	}
	x.t.Epoch.Exit()
}

// lookup resolves key (whose map hash is h): present right now, and if
// so its current value, read with the node's liveness link in one
// ShortRO2, so a concurrent update, removal or migration can never
// produce a torn observation. The caller holds an epoch pin.
func (x *Thread) lookup(key string, h uint64) (Value, bool) {
	sh := x.m.shardOf(h)
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return 0, false
		}
		n := sh.a.Get(cur)
		d, nv, vv := x.t.ShortRO2(x.m.nextVar(sh, cur, n), x.m.valVar(sh, cur, n))
		if !d.Valid() {
			x.conflict(attempt)
			continue
		}
		if nv.Marked() {
			continue // unlinked under our feet; re-resolve
		}
		return vv, true
	}
}

// Put stores val under key and reports whether the key was inserted
// (false: an existing value was replaced). Updates run as a combined
// short transaction that re-validates the node's liveness link while the
// value word is locked and rewritten; inserts publish a fresh arena node
// with a single-location CAS on the predecessor link.
//
//spectm:noalloc
func (x *Thread) Put(key string, val Value) bool {
	h := x.m.hash(key)
	sh := x.m.shardOf(h)
	x.t.Epoch.Enter()
	var spare arena.Handle
	inserted := x.putLoop(sh, h, key, val, &spare)
	x.t.Epoch.Exit()
	if inserted {
		sh.size.Add(1)
		x.maybeGrow(sh)
	} else if !spare.IsNil() {
		sh.a.Free(spare) // lost the insert race; never published
	}
	x.logPut(key, val)
	count(&x.ops.puts, &x.ops.inserts, inserted)
	return inserted
}

// Update stores val under key only when the key is already present,
// reporting whether it was. It is Put's update half — the same combined
// ShortRO1RW1 commit that re-validates the node's liveness link while
// the value word is locked and rewritten — with the insert path removed.
// Unlike Put, Update never retains key, so callers that parse keys out
// of reused I/O buffers can pass a zero-copy view and only fall back to
// cloning the key for a real insert.
//
//spectm:noalloc
func (x *Thread) Update(key string, val Value) bool {
	h := x.m.hash(key)
	ok := x.update(h, key, val)
	if ok {
		x.logPut(key, val)
	}
	count(&x.ops.updates, &x.ops.updateHits, ok)
	return ok
}

func (x *Thread) update(h uint64, key string, val Value) bool {
	sh := x.m.shardOf(h)
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return false
		}
		if x.writeVal(sh, cur, val, attempt) {
			return true
		}
	}
}

// writeVal runs the combined update commit on a found node: the
// liveness link validates read-only while the value word is locked and
// rewritten (ShortRO1 + LockRead → ShortRO1RW1.Commit). Shared by
// Put's update half and Update. It reports whether the value committed;
// on false the caller re-resolves the key, because either the node was
// unlinked after the walk or the commit lost a race (backoff already
// applied).
func (x *Thread) writeVal(sh *shard, cur arena.Handle, val Value, attempt int) bool {
	n := sh.a.Get(cur)
	ro, nv := x.t.ShortRO1(x.m.nextVar(sh, cur, n))
	if nv.Marked() {
		ro.Discard()
		return false
	}
	c, _ := ro.LockRead(x.m.valVar(sh, cur, n))
	if c.Commit(val) {
		return true
	}
	x.conflict(attempt)
	return false
}

// putLoop inserts or updates key, reporting whether it inserted.
// With the ordered index on, a reference on key's index entry is taken
// before the node is published — so a scan can never miss a live key —
// and released again if the insert loses to a concurrent writer and
// degrades into an update. The node records the entry (node.ent), and
// the publish is a ShortRW2 that writes the entry's hint in the same
// commit as the predecessor link (see ordered.go, "Hash-node hints").
func (x *Thread) putLoop(sh *shard, h uint64, key string, val Value, spare *arena.Handle) bool {
	ol := x.m.ordered
	var eh arena.Handle // key's index entry, once a reference is held
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		prev, link, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if found {
			if x.writeVal(sh, cur, val, attempt) {
				if !eh.IsNil() {
					ol.release(x, key, eh) // insert lost; release the provisional reference
				}
				return false
			}
			continue
		}
		if spare.IsNil() {
			var n *node
			*spare, n = sh.a.Alloc()
			n.hash, n.key = h, key
			n.p0, n.p1 = prefixWords(key)
		}
		n := sh.a.Get(*spare)
		n.val.Init(val)
		n.next.Init(link)
		if ol == nil {
			if x.t.SingleCAS(prev, link, enc(*spare)) == link {
				return true
			}
			continue
		}
		if eh.IsNil() {
			eh = ol.add(x, key, h)
			n.ent = eh
		}
		d, pv, _ := x.t.ShortRW2(prev, ol.hintVar(eh, ol.a.Get(eh)))
		if !d.Valid() {
			x.conflict(attempt)
			continue
		}
		if pv != link {
			d.Abort() // the chain moved since the search
			continue
		}
		d.Commit(enc(*spare), enc(*spare))
		return true
	}
}

// Delete removes key, reporting whether it was present. Removal is the
// paper's §3 mark-and-unlink as one short read-write transaction: the
// node's own link is marked (so concurrent walkers restart) in the same
// commit that splices it out of the chain and, with the ordered index
// on, empties the hint in the key's index entry.
//
//spectm:noalloc
func (x *Thread) Delete(key string) bool {
	h := x.m.hash(key)
	ok := x.del(h, key)
	if ok {
		x.logDelete(key)
	}
	count(&x.ops.deletes, &x.ops.deleteHits, ok)
	return ok
}

// del unlinks key, reporting whether it was present. With the ordered
// index on, the unlink commit is a
// ShortRW3 that also writes the hint of the node's entry (node.ent)
// empty, and the node's reference on that entry is released after the
// commit: the index entry outlives the key, never the reverse. The
// release goes to the entry directly, so the delete searches the index
// only to remove an entry taller than one level (see olist.remove).
func (x *Thread) del(h uint64, key string) bool {
	sh := x.m.shardOf(h)
	ol := x.m.ordered
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		prev, link, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return false
		}
		n := sh.a.Get(cur)
		if ol == nil {
			d, nv, pv := x.t.ShortRW2(x.m.nextVar(sh, cur, n), prev)
			if !d.Valid() {
				x.conflict(attempt)
				continue
			}
			if nv.Marked() || pv != link {
				// The node was unlinked (removed or migrated) or the chain
				// moved; either way the search result is stale.
				d.Abort()
				continue
			}
			d.Commit(nv.WithMark(), nv)
		} else {
			d, nv, pv, _ := x.t.ShortRW3(x.m.nextVar(sh, cur, n), prev, ol.hintVar(n.ent, ol.a.Get(n.ent)))
			if !d.Valid() {
				x.conflict(attempt)
				continue
			}
			if nv.Marked() || pv != link {
				d.Abort()
				continue
			}
			d.Commit(nv.WithMark(), nv, word.Null)
		}
		sh.size.Add(^uint64(0))
		x.t.Epoch.Retire(sh.a, uint64(cur))
		if ol != nil {
			ol.release(x, key, n.ent)
		}
		return true
	}
}

// CompareAndSwap replaces key's value with new iff it currently holds
// old, following the paper's DCSS shape: a 2-location read-only snapshot
// of (liveness link, value), an upgrade of the value entry, and a
// combined commit that validates the link under the write lock. It
// returns false when the key is absent or holds a different value.
//
//spectm:noalloc
func (x *Thread) CompareAndSwap(key string, old, new Value) bool {
	h := x.m.hash(key)
	ok := x.cas(h, key, old, new)
	if ok {
		x.logCAS(key, new)
	}
	count(&x.ops.cas, &x.ops.casHits, ok)
	return ok
}

func (x *Thread) cas(h uint64, key string, old, new Value) bool {
	sh := x.m.shardOf(h)
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return false
		}
		n := sh.a.Get(cur)
		d1, nv := x.t.ShortRO1(x.m.nextVar(sh, cur, n))
		d2, vv := d1.Extend(x.m.valVar(sh, cur, n))
		if nv.Marked() {
			d2.Discard()
			continue
		}
		if vv != old {
			if d2.Valid() {
				return false // consistent snapshot: live node, other value
			}
			x.conflict(attempt)
			continue
		}
		if c, up := d2.Upgrade2(); up && c.Commit(new) {
			return true
		}
		x.conflict(attempt)
	}
}

// Swap2 atomically exchanges the values of k1 and k2 — across shards —
// as one combined short transaction: both liveness links validate
// read-only while both value words are locked and rewritten
// (ShortRO2RW2). It returns false if either key is absent; a reader can
// never observe a half-applied swap.
func (x *Thread) Swap2(k1, k2 string) bool {
	ok := x.swap2(k1, k2)
	count(&x.ops.swaps, &x.ops.swapHits, ok)
	return ok
}

func (x *Thread) swap2(k1, k2 string) bool {
	if k1 == k2 {
		_, ok := x.get(k1)
		return ok
	}
	h1, h2 := x.m.hash(k1), x.m.hash(k2)
	x.t.Epoch.Enter()
	v1, v2, ok := x.set2(h1, h2, k1, k2, true, 0, 0)
	x.t.Epoch.Exit()
	if ok {
		// A swap's new values are the other key's old ones.
		x.logSwap2(k1, v2, k2, v1)
	}
	return ok
}

// set2 writes two distinct present keys in one combined short
// transaction: both liveness links validate read-only while both value
// words are locked and rewritten (ShortRO2RW2). With swap the keys
// exchange values and v1, v2 are ignored; otherwise k1 gets v1 and k2
// gets v2. It reports the values the commit replaced, or false when
// either key is absent. The caller holds an epoch pin.
func (x *Thread) set2(h1, h2 uint64, k1, k2 string, swap bool, v1, v2 Value) (Value, Value, bool) {
	s1, s2 := x.m.shardOf(h1), x.m.shardOf(h2)
	for attempt := 1; ; attempt++ {
		_, _, c1, found1, ok1 := x.search(s1, x.route(s1, h1), h1, k1)
		if !ok1 {
			continue
		}
		_, _, c2, found2, ok2 := x.search(s2, x.route(s2, h2), h2, k2)
		if !ok2 {
			continue
		}
		if !found1 || !found2 {
			return 0, 0, false
		}
		n1, n2 := s1.a.Get(c1), s2.a.Get(c2)
		d1, nv1 := x.t.ShortRO1(x.m.nextVar(s1, c1, n1))
		d2, nv2 := d1.Extend(x.m.nextVar(s2, c2, n2))
		if nv1.Marked() || nv2.Marked() {
			d2.Discard()
			continue
		}
		w1, old1 := d2.LockRead(x.m.valVar(s1, c1, n1))
		w2, old2 := w1.LockRead(x.m.valVar(s2, c2, n2))
		if swap {
			v1, v2 = old2, old1
		}
		if w2.Commit(v1, v2) {
			return old1, old2, true
		}
		// A cross-shard op conflicts on its first key's shard: one shard
		// keeps the thread's ticket count at most one (no queue deadlock).
		x.conflict(attempt)
	}
}
