// Package stmset implements the paper's transactional integer sets: hash
// tables and skip lists built over the SpecTM engine through either the
// full-transaction API (the BaseTM data structures of §2.1) or the
// specialized short-transaction API (§2.2–2.4, §3), plus the
// "fine-grained ordinary transactions" variant of Fig 6(a), which keeps
// the short-transaction structure but executes every step as a small
// full transaction.
//
// Values stored in transactional words are arena handles encoded with
// word.FromUint; bit 1 is the "deleted" mark, exactly as in the paper's
// skip list ("a 'deleted' bit is reserved in all of a node's forward
// pointers", §3).
package stmset

import (
	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// enc packs a handle into a transactional value.
func enc(h arena.Handle) word.Value { return word.FromUint(uint64(h)) }

// dec extracts the handle, ignoring the mark bit.
func dec(v word.Value) arena.Handle { return arena.Handle(v.WithoutMark().Uint()) }

// Stable identity spaces for orec hashing. Arena handles occupy 48 bits;
// shifting by 6 leaves room for a per-tower level index, and the high
// tags keep structure-level cells from colliding with node cells by
// construction (collisions through the orec hash remain possible, which
// is the point of the orec layout).
const (
	idBucketBase = uint64(1) << 52
	idHeadBase   = uint64(1) << 53
	idHeadLvl    = uint64(1) << 54
	idNodeShift  = 6
)

// MaxBuckets bounds a hash table's bucket count, rounded up to a power of 2.
const MaxBuckets = 1 << 20

// Thread is the per-worker view of a set. Implementations are not safe
// for concurrent use by multiple goroutines.
type Thread interface {
	Contains(key uint64) bool
	Add(key uint64) bool
	Remove(key uint64) bool
	// Thr exposes the underlying engine thread (stats, epochs). Nil for
	// non-STM implementations wrapped elsewhere.
	Thr() *core.Thr
}

// Set is a concurrent integer set bound to one engine.
type Set interface {
	NewThread() Thread
}
