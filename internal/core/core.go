// Package core implements SpecTM, the specialized software transactional
// memory of Dragojević & Harris, "STM in the Small" (EuroSys 2012).
//
// One Engine provides three APIs over the same meta-data, so they can be
// freely mixed (the paper's key compositionality property, §2/§3):
//
//   - Single-location transactions (Tx_Single_Read/Write/CAS, §2.2):
//     SingleRead, SingleWrite, SingleCAS.
//   - Short transactions of a statically known size ≤ 4 (§2.2): typed
//     descriptors ShortRW1..4 / ShortRO1..4 / ShortROxRWy whose arity is
//     in the type, with validation, commit-with-values, read-only↔
//     read-write upgrades and combined commits (typed.go).
//   - Full transactions (BaseTM, §2.1/§4.1): TxStart/TxRead/TxWrite/
//     TxCommit, following TL2 with timebase extension, commit-time
//     locking, invisible reads and deferred updates; for the val layout a
//     NOrec-style value-validated protocol with (per-thread) commit
//     counters.
//
// The Engine is configured with one of three meta-data layouts (Fig 3):
//
//	LayoutOrec — shared hash-indexed ownership-record table (Fig 3a)
//	LayoutTVar — per-word ownership record co-located with data (Fig 3b)
//	LayoutVal  — one lock bit stolen from the data word itself (Fig 3c),
//	             with value-based validation
//
// and a concurrency-control policy (CC) that fixes the version
// management (§4.1): one shared TL2 counter by default, per-orec versions
// with incremental validation under CCLocal; on the val layout, value
// validation with per-thread commit counters, or without under
// CCNoCounter.
package core

import (
	"fmt"
	"sync/atomic"

	"spectm/internal/backoff"
	"spectm/internal/clock"
	"spectm/internal/epoch"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// Value re-exports the transactional word encoding for callers of the API.
type Value = word.Value

// Layout selects how STM meta-data is organized (paper Fig 3).
type Layout uint8

const (
	// LayoutVal reserves one bit of the data word as the only meta-data
	// and validates reads by value (Fig 3c, §2.4). It is the zero value.
	LayoutVal Layout = iota
	// LayoutOrec uses a shared table of ownership records indexed by a
	// hash of the word's stable identity (Fig 3a).
	LayoutOrec
	// LayoutTVar co-locates a private ownership record with each data
	// word (Fig 3b).
	LayoutTVar
)

// String implements fmt.Stringer for variant labels.
func (l Layout) String() string {
	switch l {
	case LayoutOrec:
		return "orec"
	case LayoutTVar:
		return "tvar"
	case LayoutVal:
		return "val"
	}
	return "unknown"
}

// CC selects the concurrency-control policy, one of the paper's three
// version-management schemes (§4.1): how full (and short read-only)
// transactions version words and keep their read sets
// consistent. Every policy locks a full transaction's write set at
// commit time. Policies are specialized at engine construction into
// monomorphized read/commit paths — there is no interface dispatch on
// the hot path.
type CC uint8

const (
	// CCTimestampExt (the default) is the engine's original protocol:
	// commit-time (lazy) lock acquisition, invisible readers, and
	// TL2-style timebase extension — a read that observes a version
	// newer than the transaction's snapshot revalidates the read set
	// against a fresh snapshot instead of aborting. On LayoutVal it is
	// value-based validation guarded by per-thread commit counters
	// (after Dalessandro et al.), which makes general transactions safe.
	CCTimestampExt CC = iota
	// CCLocal, for the versioned layouts (orec, tvar), keeps per-orec
	// versions and no global counter, paying for it with read-set
	// validation after every read.
	CCLocal
	// CCNoCounter, for LayoutVal only, is value-based validation
	// without commit counters. Sound only under the paper's §2.4 special
	// cases (e.g. the non-re-use property, which arena handles provide);
	// it is what the paper's val-short and the Fig 5 val-full variants
	// measure.
	CCNoCounter
)

// String implements fmt.Stringer for variant labels.
func (c CC) String() string {
	switch c {
	case CCTimestampExt:
		return "ext"
	case CCLocal:
		return "local"
	case CCNoCounter:
		return "nocounter"
	}
	return "unknown"
}

// MaxShort is the largest number of locations a short transaction may
// access. The paper uses four and notes the limit "can be increased in a
// straightforward manner" (§2.2).
const MaxShort = 4

// Config parametrizes an Engine.
type Config struct {
	// Layout selects the meta-data organization. The zero value is
	// LayoutVal.
	Layout Layout

	// CC selects the concurrency-control policy. The zero value
	// (CCTimestampExt) is valid on every layout.
	CC CC

	// OrecBits is log2 of the ownership-record table size for
	// LayoutOrec. Defaults to 18 (256k orecs). Tiny values are useful in
	// tests to force false conflicts.
	OrecBits int

	// MaxThreads bounds Register calls (sizes per-thread counter arrays
	// and the epoch domain). Defaults to 128. It is capacity, not cost:
	// validation walks the registered threads' counters only (see
	// clock.PerThread), so spare capacity costs 256 bytes a slot.
	MaxThreads int

	// Debug enables the paper's §2.2 runtime misuse checks (read/write
	// set disjointness, duplicate locations, lock leaks into full
	// transactions). See debug.go.
	Debug bool
}

func (c Config) withDefaults() Config {
	if c.OrecBits == 0 {
		c.OrecBits = 18
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 128
	}
	return c
}

// Validate reports whether the configuration describes a buildable
// engine. Zero values are valid (they select defaults); set fields must
// be in range and consistent with the layout.
func (c Config) Validate() error {
	if c.Layout > LayoutTVar {
		return fmt.Errorf("core: unknown layout %d", c.Layout)
	}
	// OrecBits is ignored by the layouts it does not apply to, so it is
	// only range-checked here; the stricter options constructor in the
	// public package rejects the layout-inconsistent combination itself.
	if c.OrecBits < 0 || c.OrecBits > 30 {
		return fmt.Errorf("core: OrecBits %d out of range [0, 30] (0 selects the default)", c.OrecBits)
	}
	if c.MaxThreads < 0 {
		return fmt.Errorf("core: MaxThreads %d is negative", c.MaxThreads)
	}
	if c.CC > CCNoCounter {
		return fmt.Errorf("core: unknown concurrency-control policy %d", c.CC)
	}
	if c.CC == CCNoCounter && c.Layout != LayoutVal {
		return fmt.Errorf("core: CCNoCounter requires LayoutVal (value-based validation)")
	}
	if c.CC == CCLocal && c.Layout == LayoutVal {
		return fmt.Errorf("core: the %v policy requires a versioned layout (orec or tvar)", c.CC)
	}
	return nil
}

// Engine is a SpecTM instance: meta-data layout, clocks, and the thread
// registry. All transactional data accessed through one Engine must be
// created against that Engine.
type Engine struct {
	cfg      Config
	rp       rpath    // monomorphized read/validate path (from cfg)
	orecs    []uint64 // LayoutOrec only
	orecMask uint64
	global   clock.Global
	local    *clock.PerThread // commit counters; also the thread-id allocator
	nextID   atomic.Uint64    // identity source for standalone vars
	epochDom *epoch.Domain
}

// rpath is the engine's specialized read/validate path, computed once at
// construction from the layout and CC policy. Hot-path dispatch is a
// switch on this byte to statically-known functions — the "per policy
// monomorphized paths" that replace interface dispatch.
type rpath uint8

const (
	rpVerExt   rpath = iota // versioned words, global clock, timebase extension
	rpVerLocal              // versioned words, per-orec versions, validate per read
	rpValCnt                // val layout, value validation with commit counters
	rpValNoCnt              // val layout, pure value validation
)

// protoPath derives the dispatch code from a validated configuration.
func protoPath(cfg Config) rpath {
	switch {
	case cfg.CC == CCNoCounter:
		return rpValNoCnt
	case cfg.Layout == LayoutVal:
		return rpValCnt
	case cfg.CC == CCLocal:
		return rpVerLocal
	}
	return rpVerExt
}

// New creates an engine, panicking on an invalid configuration. Use
// NewChecked to handle configuration errors gracefully.
func New(cfg Config) *Engine {
	e, err := NewChecked(cfg)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// NewChecked creates an engine, returning an error when the
// configuration does not validate.
func NewChecked(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		rp:       protoPath(cfg),
		local:    clock.NewPerThread(cfg.MaxThreads),
		epochDom: epoch.NewDomain(cfg.MaxThreads),
	}
	if cfg.Layout == LayoutOrec {
		n := uint64(1) << cfg.OrecBits
		e.orecs = make([]uint64, n)
		e.orecMask = n - 1
	}
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Layout returns the engine's meta-data layout.
func (e *Engine) Layout() Layout { return e.cfg.Layout }

// Cell is the in-memory representation of one transactional word. One
// struct serves all layouts: LayoutTVar uses meta as the co-located orec;
// LayoutOrec and LayoutVal ignore it (the former uses the shared table,
// the latter needs no meta word at all). Cells are typically embedded in
// arena-allocated nodes.
type Cell struct {
	meta uint64
	data uint64
}

// Init (re)initializes a cell to hold v with a fresh version. It must not
// race with transactional access to the same cell; it is for construction
// of not-yet-published nodes.
func (c *Cell) Init(v Value) {
	atomic.StoreUint64(&c.meta, 0)
	atomic.StoreUint64(&c.data, uint64(v))
}

// Word is a transactional word with no co-located meta-data: 8 bytes,
// the footprint the val layout defines (Fig 3c). Under LayoutOrec its
// meta-data is the shared orec table; LayoutTVar, which co-locates an
// orec with every word, cannot bind one (see WordVar). Data structures
// that run only on those two layouts embed Words instead of Cells.
type Word struct {
	data uint64
}

// Init (re)initializes the word to hold v. Like Cell.Init, it is for
// construction of not-yet-published nodes.
func (w *Word) Init(v Value) { atomic.StoreUint64(&w.data, uint64(v)) }

// NewWords returns n words, each holding v. Like Init, it is for words
// not yet published, but it builds them with plain stores: the caller
// must publish them through an atomic store that every reader's first
// access follows.
func NewWords(n int, v Value) []Word {
	ws := make([]Word, n)
	for i := range ws {
		ws[i] = Word{data: uint64(v)}
	}
	return ws
}

// Touch loads the word with one atomic read, outside any transaction.
// Under LayoutVal the word may be a writer's lock word (word.Locked).
// Multi-key readers touch the words their transactions are about to
// read, so that independent cache misses overlap instead of being taken
// one after another; the transaction re-reads every word it uses.
func (w *Word) Touch() uint64 { return atomic.LoadUint64(&w.data) }

// Var addresses one transactional word: the data word plus the location
// of its meta-data under the engine's layout.
type Var struct {
	meta *uint64 // nil for LayoutVal
	data *uint64
}

// VarOf binds a cell to its meta-data. id must be a stable identity for
// the word (e.g. arena handle and field index packed together); under
// LayoutOrec it indexes the shared orec table, reproducing the paper's
// hash-based mapping, including false conflicts on collisions.
func (e *Engine) VarOf(c *Cell, id uint64) Var {
	switch e.cfg.Layout {
	case LayoutOrec:
		return Var{meta: &e.orecs[rng.Mix(id)&e.orecMask], data: &c.data}
	case LayoutTVar:
		return Var{meta: &c.meta, data: &c.data}
	default: // LayoutVal
		return Var{data: &c.data}
	}
}

// WordVar binds a Word to its meta-data, as VarOf does a Cell. It
// panics on a LayoutTVar engine, whose meta-data lives in the Cell.
func (e *Engine) WordVar(w *Word, id uint64) Var {
	switch e.cfg.Layout {
	case LayoutOrec:
		return Var{meta: &e.orecs[rng.Mix(id)&e.orecMask], data: &w.data}
	case LayoutVal:
		return Var{data: &w.data}
	}
	panic("core: a Word has no orec of its own; LayoutTVar needs a Cell")
}

// NewVar allocates a standalone transactional variable initialized to v.
// Data-structure nodes embed Cells instead and use VarOf.
func (e *Engine) NewVar(v Value) Var {
	c := &Cell{}
	c.Init(v)
	return e.VarOf(c, e.nextID.Add(1))
}

// Stats counts per-thread transaction outcomes.
type Stats struct {
	Commits      uint64 // full-transaction commits
	Aborts       uint64 // full-transaction aborts (conflicts)
	ShortCommits uint64 // short-transaction commits (incl. RO validations)
	ShortAborts  uint64 // short-transaction conflicts
	Singles      uint64 // single-location transactions
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.ShortCommits += o.ShortCommits
	s.ShortAborts += o.ShortAborts
	s.Singles += o.Singles
}

// Thr is a registered thread: the per-thread transaction descriptor of
// §4.1 ("all transactions executed by the same thread use the same
// per-thread transaction descriptor"). A Thr must not be shared between
// goroutines.
type Thr struct {
	e     *Engine
	id    int    // 0-based thread index
	owner uint64 // id+1; appears in lock words
	rp    rpath  // engine's read path, cached for hot-path dispatch
	// Epoch is the thread's reclamation slot, shared with the data
	// structures built over the engine.
	Epoch *epoch.Slot
	// Rng is the thread's private generator (backoff, workloads).
	Rng *rng.State
	// Stats accumulates outcome counts.
	Stats Stats

	short shortRec
	txn   txnRec
}

// Register allocates a thread slot on the engine. The commit clock is
// the one registration point: it hands out the id and covers the slot
// before the Thr exists, so before the thread's first store phase.
func (e *Engine) Register() *Thr {
	id, ok := e.local.Register()
	if !ok {
		panic(fmt.Sprintf("core: more than MaxThreads=%d registered threads", e.cfg.MaxThreads))
	}
	return &Thr{
		e:     e,
		id:    id,
		owner: uint64(id) + 1,
		rp:    e.rp,
		Epoch: e.epochDom.Register(),
		Rng:   rng.New(uint64(id)*0x9e3779b97f4a7c15 + 1),
	}
}

// Threads returns the number of registered threads: the width of one
// commit-counter validation pass.
func (e *Engine) Threads() int { return e.local.Registered() }

// ID returns the thread's index.
func (t *Thr) ID() int { return t.id }

// Engine returns the engine this thread is registered with.
func (t *Thr) Engine() *Engine { return t.e }

// storeBegin marks the start of a store phase: the thread's commit
// counter goes odd, which makes concurrent StableSum samplers wait. The
// bracketed store phase must be short and panic-free.
func (t *Thr) storeBegin() {
	if t.rp == rpValCnt {
		t.e.local.Bump(t.id)
	}
}

// storeEnd marks the end of a store phase (counter back to even).
func (t *Thr) storeEnd() {
	if t.rp == rpValCnt {
		t.e.local.Bump(t.id)
	}
}

// stableSum reads the logical commit counter (val layout), waiting out
// any writer that is inside its store phase.
func (e *Engine) stableSum() uint64 { return e.local.StableSum() }

// Backoff delays the caller before a retry, using the randomized linear
// contention manager (attempt is 1-based).
func (t *Thr) Backoff(attempt int) { backoff.Wait(t.Rng, attempt) }

// spinWait is a bounded busy-wait used while a lock bit is expected to
// clear momentarily; it yields to the scheduler each round.
func spinWait(iter int) {
	if iter&0xf == 0xf {
		backoff.Yield()
	}
}
