// Package spectm is a Go implementation of SpecTM — the specialized
// software transactional memory of Dragojević & Harris, "STM in the
// Small: Trading Generality for Performance in Software Transactional
// Memory" (EuroSys 2012) — together with the data structures and
// baselines of the paper's evaluation.
//
// # The engine
//
// An Engine provides transactional words (Var) under one of three
// meta-data layouts (LayoutOrec, LayoutTVar, LayoutVal) and one of three
// concurrency-control policies (CCTimestampExt, CCLocal, CCNoCounter),
// selected with options at construction:
//
//	e := spectm.New(spectm.WithLayout(spectm.LayoutVal), spectm.WithCC(spectm.CCNoCounter))
//
// Three APIs operate on the same meta-data and can be freely mixed:
//
//   - single-location transactions: Thr.SingleRead, SingleWrite,
//     SingleCAS;
//   - short transactions of statically known size ≤ 4, via typed
//     descriptors whose arity lives in the type: Thr.ShortRW1..4 /
//     ShortRO1..4 openers with Extend, Valid, Commit, Abort, Upgrade
//     and LockRead, plus the DoRW*/DoRO* retry combinators (see
//     DESIGN.md for the correspondence with the paper's Figure 2);
//   - full transactions: Thr.TxStart/TxRead/TxWrite/TxCommit, or the
//     Thr.Atomic retry wrapper.
//
// Short-transaction commit and validation paths perform no dynamic
// allocation — the paper's whole premise is that statically sized
// transactions need no dynamic bookkeeping.
//
// # Data structures
//
// NewSet builds the paper's hash-table and skip-list integer sets in any
// of the evaluated variants (sequential, lock-free, orec/tvar/val ×
// full/short × global/local). NewDeque builds the §2 double-ended queue
// in both the traditional and the specialized flavor. DCSS, CAS2–CAS4
// and KCSS are multi-word primitives layered on short transactions.
//
// # Reproduction
//
// cmd/spectm-bench regenerates every figure of the paper's evaluation;
// DESIGN.md documents the architecture and the API migration tables.
package spectm

import (
	"time"

	"spectm/internal/core"
	"spectm/internal/deque"
	"spectm/internal/intset"
	"spectm/internal/mwcas"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// Value is the 64-bit encoded content of a transactional word. Payloads
// occupy bits 2..63; bit 0 is reserved for the val layout's lock and
// bit 1 is an application-visible mark.
type Value = word.Value

// Null is the zero Value (the paper's NULL).
const Null = word.Null

// MaxPayload is the largest integer a Value can carry.
const MaxPayload = word.MaxPayload

// FromUint encodes an integer payload into a Value.
func FromUint(u uint64) Value { return word.FromUint(u) }

// Engine is a SpecTM instance. Create with New; register each worker
// goroutine with Engine.Register.
type Engine = core.Engine

// Config is the engine's effective configuration, as reported by
// Engine.Config. Engines are constructed with New and Option values
// (WithLayout, WithCC, ...), not from a bare Config.
type Config = core.Config

// Layout selects the meta-data organization (paper Fig 3).
type Layout = core.Layout

// CC selects the concurrency-control policy; see WithCC.
type CC = core.CC

// Meta-data layouts and concurrency-control policies (see the paper's
// Fig 3 and §4.1, and WithCC for the policy table). Contention management
// is not a choice: every retry loop uses the paper's randomized linear
// backoff.
const (
	LayoutOrec = core.LayoutOrec
	LayoutTVar = core.LayoutTVar
	LayoutVal  = core.LayoutVal

	CCTimestampExt = core.CCTimestampExt
	CCLocal        = core.CCLocal
	CCNoCounter    = core.CCNoCounter
)

// MaxShort is the maximum number of locations in a short transaction.
const MaxShort = core.MaxShort

// Thr is a registered thread: the per-thread transaction descriptor.
type Thr = core.Thr

// Var addresses one transactional word.
type Var = core.Var

// Cell is the storage of a transactional word, for embedding in nodes.
type Cell = core.Cell

// Stats counts transaction outcomes per thread.
type Stats = core.Stats

// Typed short-transaction descriptors (see DESIGN.md). ShortRWn is an
// open n-location read-write transaction; ShortROn an n-location
// read-only one; ShortROxRWy a combined transaction holding y write
// locks that will validate x read-only entries at commit. Obtain them
// from the Thr.ShortRW*/ShortRO* openers — never construct them
// directly.
type (
	ShortRW1 = core.ShortRW1
	ShortRW2 = core.ShortRW2
	ShortRW3 = core.ShortRW3
	ShortRW4 = core.ShortRW4

	ShortRO1 = core.ShortRO1
	ShortRO2 = core.ShortRO2
	ShortRO3 = core.ShortRO3
	ShortRO4 = core.ShortRO4

	ShortRO1RW1 = core.ShortRO1RW1
	ShortRO1RW2 = core.ShortRO1RW2
	ShortRO1RW3 = core.ShortRO1RW3
	ShortRO2RW1 = core.ShortRO2RW1
	ShortRO2RW2 = core.ShortRO2RW2
	ShortRO3RW1 = core.ShortRO3RW1
	ShortRO3RW2 = core.ShortRO3RW2
	ShortRO4RW1 = core.ShortRO4RW1
)

// DoRW1 runs a 1-location short read-modify-write transaction to
// completion: conflicts retry with backoff, then f receives the stable
// locked value and returns the value to commit (or false to abort, in
// which case DoRW1 reports false).
func DoRW1(t *Thr, a Var, f func(x1 Value) (Value, bool)) bool { return core.DoRW1(t, a, f) }

// DoRW2 runs a 2-location short read-modify-write transaction.
func DoRW2(t *Thr, a, b Var, f func(x1, x2 Value) (Value, Value, bool)) bool {
	return core.DoRW2(t, a, b, f)
}

// DoRW3 runs a 3-location short read-modify-write transaction.
func DoRW3(t *Thr, a, b, c Var, f func(x1, x2, x3 Value) (Value, Value, Value, bool)) bool {
	return core.DoRW3(t, a, b, c, f)
}

// DoRW4 runs a 4-location short read-modify-write transaction.
func DoRW4(t *Thr, a, b, c, d Var, f func(x1, x2, x3, x4 Value) (Value, Value, Value, Value, bool)) bool {
	return core.DoRW4(t, a, b, c, d, f)
}

// DoRO1 returns a validated read of a, retrying on conflicts.
func DoRO1(t *Thr, a Var) Value { return core.DoRO1(t, a) }

// DoRO2 returns a consistent snapshot of two locations.
func DoRO2(t *Thr, a, b Var) (Value, Value) { return core.DoRO2(t, a, b) }

// DoRO3 returns a consistent snapshot of three locations.
func DoRO3(t *Thr, a, b, c Var) (Value, Value, Value) { return core.DoRO3(t, a, b, c) }

// DoRO4 returns a consistent snapshot of four locations.
func DoRO4(t *Thr, a, b, c, d Var) (Value, Value, Value, Value) { return core.DoRO4(t, a, b, c, d) }

// Map is a sharded, resizable, string-keyed transactional hash map whose
// hot paths (Get, Put, Update, Delete, CompareAndSwap, Swap2, 2-key
// GetBatch) are statically sized short transactions; only per-shard
// incremental resize uses full transactions. Create with NewMap, attach
// one MapThread per worker goroutine. cmd/spectm-server serves a Map
// over TCP with a pipelined RESP-like protocol whose commands dispatch
// 1:1 onto these short-transaction paths.
type Map = shardmap.Map

// MapThread is a per-goroutine handle on a Map.
type MapThread = shardmap.Thread

// MapOpStats is a snapshot of map operation counters (per MapThread via
// MapThread.OpStats, aggregated across threads via Map.OpStats).
type MapOpStats = shardmap.OpStats

// MapOption configures a Map under construction.
type MapOption = shardmap.Option

// WithShards sets the map's shard count (rounded up to a power of two;
// default: smallest power of two ≥ GOMAXPROCS, at least 8).
func WithShards(n int) MapOption { return shardmap.WithShards(n) }

// WithInitialBuckets sets each shard's starting bucket count (rounded up
// to a power of two, default 64); shards grow past it on demand.
func WithInitialBuckets(n int) MapOption { return shardmap.WithInitialBuckets(n) }

// NewMap creates a sharded transactional map over engine e. Map
// operations share e's meta-data, so they compose with every other
// transaction on the engine. The map's words are 8 bytes, so e must use
// LayoutVal or LayoutOrec: NewMap panics on a LayoutTVar engine, and
// OpenMap returns an error.
func NewMap(e *Engine, opts ...MapOption) *Map { return shardmap.New(e, opts...) }

// FsyncPolicy selects when a persistent map's write-ahead log fsyncs:
// FsyncAlways (every mutation blocks for its group commit), FsyncEveryN
// (at least once every n records) or FsyncInterval (at most every d).
type FsyncPolicy = wal.Policy

// FsyncAlways makes every mutation wait for the group commit covering
// its log record — full durability at fsync-latency cost.
func FsyncAlways() FsyncPolicy { return wal.Always() }

// FsyncEveryN fsyncs at least once every n records; mutations never
// block, a crash can lose up to n acknowledged operations.
func FsyncEveryN(n int) FsyncPolicy { return wal.EveryN(n) }

// FsyncInterval fsyncs at most every d; mutations never block, a crash
// can lose up to d worth of acknowledged operations.
func FsyncInterval(d time.Duration) FsyncPolicy { return wal.Interval(d) }

// ParseFsyncPolicy parses the flag syntax "always", "every=N" or
// "interval=DURATION".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// WithPersistence makes the map durable: every committed mutation is
// appended to the map's write-ahead log under dir (fsynced per
// policy; the zero FsyncPolicy means interval=1s) and construction
// replays any state already there. NewMap panics if dir cannot be
// opened; OpenMap reports it as an error instead.
func WithPersistence(dir string, policy FsyncPolicy) MapOption {
	return shardmap.WithPersistence(dir, policy)
}

// WithCompactAfter sets the log size (bytes) that triggers an automatic
// snapshot + log compaction on a persistent map (default 128 MiB).
func WithCompactAfter(n int64) MapOption { return shardmap.WithCompactAfter(n) }

// OpenMap creates a persistent map over engine e, recovering whatever
// state dir holds (an empty or absent directory yields an empty map).
// The map's Save method snapshots and compacts the log on demand — the
// serving layer's BGSAVE — and Close flushes and closes it.
func OpenMap(e *Engine, dir string, opts ...MapOption) (*Map, error) {
	return shardmap.Open(e, dir, opts...)
}

// Set is a concurrent integer set in one of the paper's variants.
type Set = intset.Set

// SetThread is a per-worker handle on a Set.
type SetThread = intset.Thread

// SetConfig selects a structure ("hash" or "skip") and variant.
type SetConfig = intset.Config

// NewSet builds an integer set; see SetVariants for the variant names.
func NewSet(cfg SetConfig) (Set, error) { return intset.New(cfg) }

// SetVariants lists every set variant of the paper's evaluation.
func SetVariants() []string { return intset.Variants() }

// Deque is the bounded double-ended queue of the paper's §2.
type Deque = deque.D

// DequeShort is the specialized-API accessor flavor.
type DequeShort = deque.Short

// DequeFull is the traditional-API accessor flavor.
type DequeFull = deque.Full

// NewDeque creates a deque with the given capacity on engine e. Attach
// per-thread accessors with Deque.NewShort and Deque.NewFull; the two
// flavors compose on the same deque.
func NewDeque(e *Engine, capacity int) *Deque { return deque.New(e, capacity) }

// DCSS is double-compare-single-swap: if *a1 == o1 and *a2 == o2, store
// n1 into a1. It reports whether the swap happened.
func DCSS(t *Thr, a1, a2 Var, o1, o2, n1 Value) bool { return mwcas.DCSS(t, a1, a2, o1, o2, n1) }

// CAS2 is a 2-location compare-and-swap.
func CAS2(t *Thr, a1, a2 Var, o1, o2, n1, n2 Value) bool {
	return mwcas.CAS2(t, a1, a2, o1, o2, n1, n2)
}

// CAS3 is a 3-location compare-and-swap.
func CAS3(t *Thr, a1, a2, a3 Var, o1, o2, o3, n1, n2, n3 Value) bool {
	return mwcas.CAS3(t, a1, a2, a3, o1, o2, o3, n1, n2, n3)
}

// CAS4 is a 4-location compare-and-swap.
func CAS4(t *Thr, a [4]Var, o, n [4]Value) bool { return mwcas.CAS4(t, a, o, n) }

// KCSS compares 2–4 locations and, when all match, swaps the first.
func KCSS(t *Thr, addrs []Var, olds []Value, n1 Value) bool { return mwcas.KCSS(t, addrs, olds, n1) }
