// Package intset names and constructs every integer-set variant of the
// paper's evaluation (§4.2):
//
//	sequential       optimized single-threaded code (normalization base)
//	lock-free        Fraser/Harris–Michael CAS implementations
//	orec-full-g/l    BaseTM structures, orec table, global/local versions
//	tvar-full-g/l    BaseTM structures, co-located meta-data
//	orec-short-g/l   SpecTM short transactions over an orec table
//	tvar-short-g/l   SpecTM short transactions over TVars
//	val-short        SpecTM short transactions, 1-bit meta-data,
//	                 value-based validation (relies on the non-re-use
//	                 property, provided here by generational handles)
//	val-full         ordinary transactions over the val layout, made safe
//	                 by per-thread commit counters (§2.4's general case)
//	orec-full-g-fine skip list only: the short-transaction structure
//	                 driven by small ordinary transactions (Fig 6(a))
package intset

import (
	"fmt"
	"sync/atomic"

	"spectm/internal/core"
	"spectm/internal/epoch"
	"spectm/internal/lockfree"
	"spectm/internal/rng"
	"spectm/internal/seq"
	"spectm/internal/stmset"
)

// Thread is a per-worker handle on a set. Not safe for concurrent use by
// multiple goroutines.
type Thread interface {
	Contains(key uint64) bool
	Add(key uint64) bool
	Remove(key uint64) bool
}

// Set is a concurrent integer set.
type Set interface {
	NewThread() Thread
}

// Config selects a structure and a variant.
type Config struct {
	Structure  string // "hash" or "skip"
	Variant    string // one of Variants()
	Buckets    int    // hash only; default 16384 (the paper's default)
	MaxThreads int    // default 128, the engine's; capacity, not cost
}

// Variants returns every variant name, in the paper's presentation order.
func Variants() []string {
	return []string{
		"sequential", "lock-free",
		"orec-full-g", "orec-full-l", "tvar-full-g", "tvar-full-l",
		"orec-short-g", "orec-short-l", "tvar-short-g", "tvar-short-l",
		"val-short", "val-full",
		"orec-full-g-fine",
	}
}

// IsConcurrent reports whether the variant is safe for multi-threaded
// runs ("sequential" is not — it is the reference point).
func IsConcurrent(variant string) bool { return variant != "sequential" }

// engineFor maps variant names onto engine configurations. Unknown
// variants and invalid capacity knobs (e.g. a negative MaxThreads)
// surface as errors rather than panics.
func engineFor(variant string, maxThreads int) (*core.Engine, error) {
	cfg := core.Config{MaxThreads: maxThreads}
	switch variant {
	case "orec-full-g", "orec-short-g", "orec-full-g-fine":
		cfg.Layout = core.LayoutOrec
	case "orec-full-l", "orec-short-l":
		cfg.Layout, cfg.CC = core.LayoutOrec, core.CCLocal
	case "tvar-full-g", "tvar-short-g":
		cfg.Layout = core.LayoutTVar
	case "tvar-full-l", "tvar-short-l":
		cfg.Layout, cfg.CC = core.LayoutTVar, core.CCLocal
	case "val-short":
		// The paper's fastest variant: no version numbers at all. Safe
		// because every value stored by the sets is a never-re-used
		// generational handle or a monotone counter (§2.4's special
		// cases).
		cfg.Layout, cfg.CC = core.LayoutVal, core.CCNoCounter
	case "val-full":
		cfg.Layout = core.LayoutVal
	default:
		return nil, fmt.Errorf("intset: unknown variant %q", variant)
	}
	return core.NewChecked(cfg)
}

// New builds a set.
func New(c Config) (Set, error) {
	if c.Buckets == 0 {
		c.Buckets = 16384
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 128
	}
	switch c.Structure {
	case "hash":
		switch c.Variant {
		case "sequential":
			return &seqHashSet{h: seq.NewHash(c.Buckets)}, nil
		case "lock-free":
			return &lfHashSet{h: lockfree.NewHash(c.Buckets, c.MaxThreads)}, nil
		case "orec-full-g-fine":
			return nil, fmt.Errorf("intset: %s is a skip-list-only variant", c.Variant)
		}
		e, err := engineFor(c.Variant, c.MaxThreads)
		if err != nil {
			return nil, err
		}
		if isShort(c.Variant) {
			return stmAdapter{stmset.NewHashShort(e, c.Buckets)}, nil
		}
		return stmAdapter{stmset.NewHashFull(e, c.Buckets)}, nil
	case "skip":
		switch c.Variant {
		case "sequential":
			return &seqSkipSet{s: seq.NewSkip(1)}, nil
		case "lock-free":
			return &lfSkipSet{s: lockfree.NewSkip(c.MaxThreads)}, nil
		}
		e, err := engineFor(c.Variant, c.MaxThreads)
		if err != nil {
			return nil, err
		}
		switch {
		case c.Variant == "orec-full-g-fine":
			return stmAdapter{stmset.NewSkipFine(e)}, nil
		case isShort(c.Variant):
			return stmAdapter{stmset.NewSkipShort(e)}, nil
		default:
			return stmAdapter{stmset.NewSkipFull(e)}, nil
		}
	}
	return nil, fmt.Errorf("intset: unknown structure %q", c.Structure)
}

// isShort reports whether the variant uses the specialized API.
func isShort(variant string) bool {
	switch variant {
	case "orec-short-g", "orec-short-l", "tvar-short-g", "tvar-short-l", "val-short":
		return true
	}
	return false
}

// stmAdapter lifts a stmset.Set to the intset interface.
type stmAdapter struct {
	s stmset.Set
}

func (a stmAdapter) NewThread() Thread { return a.s.NewThread() }

// seqHashSet wraps the unsynchronized hash table. Only valid at one
// thread; the harness enforces this.
type seqHashSet struct{ h *seq.Hash }

func (s *seqHashSet) NewThread() Thread { return s }
func (s *seqHashSet) Contains(k uint64) bool {
	return s.h.Contains(k)
}
func (s *seqHashSet) Add(k uint64) bool    { return s.h.Add(k) }
func (s *seqHashSet) Remove(k uint64) bool { return s.h.Remove(k) }

// seqSkipSet wraps the unsynchronized skip list.
type seqSkipSet struct{ s *seq.Skip }

func (s *seqSkipSet) NewThread() Thread      { return s }
func (s *seqSkipSet) Contains(k uint64) bool { return s.s.Contains(k) }
func (s *seqSkipSet) Add(k uint64) bool      { return s.s.Add(k) }
func (s *seqSkipSet) Remove(k uint64) bool   { return s.s.Remove(k) }

// lfHashSet adapts the lock-free hash table.
type lfHashSet struct{ h *lockfree.Hash }

func (s *lfHashSet) NewThread() Thread {
	return &lfHashThread{h: s.h, ep: s.h.Register()}
}

type lfHashThread struct {
	h  *lockfree.Hash
	ep *epoch.Slot
}

func (t *lfHashThread) Contains(k uint64) bool { return t.h.Contains(t.ep, k) }
func (t *lfHashThread) Add(k uint64) bool      { return t.h.Add(t.ep, k) }
func (t *lfHashThread) Remove(k uint64) bool   { return t.h.Remove(t.ep, k) }

// lfSkipSet adapts the lock-free skip list.
type lfSkipSet struct {
	s    *lockfree.Skip
	seed atomic.Uint64
}

func (s *lfSkipSet) NewThread() Thread {
	return &lfSkipThread{s: s.s, ep: s.s.Register(), r: rng.New(s.seed.Add(1) * 0x9e3779b97f4a7c15)}
}

type lfSkipThread struct {
	s  *lockfree.Skip
	ep *epoch.Slot
	r  *rng.State
}

func (t *lfSkipThread) Contains(k uint64) bool { return t.s.Contains(t.ep, k) }
func (t *lfSkipThread) Add(k uint64) bool      { return t.s.Add(t.ep, t.r, k) }
func (t *lfSkipThread) Remove(k uint64) bool   { return t.s.Remove(t.ep, k) }
