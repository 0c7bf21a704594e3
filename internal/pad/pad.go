// Package pad provides cache-line-padded atomic counters for contended
// shared state (version clocks, per-thread commit counters, statistics).
// Each counter occupies its own 128-byte region (two 64-byte lines, to
// defeat adjacent-line prefetchers as well).
package pad

import "sync/atomic"

// CacheLine is the assumed cache line size in bytes.
const CacheLine = 64

// U64 is an atomic uint64 alone on its own pair of cache lines.
type U64 struct {
	_ [CacheLine - 8]byte
	v atomic.Uint64
	_ [CacheLine]byte
}

// Load atomically loads the counter.
func (p *U64) Load() uint64 { return p.v.Load() }

// Store atomically stores x.
func (p *U64) Store(x uint64) { p.v.Store(x) }

// Add atomically adds d and returns the new value.
func (p *U64) Add(d uint64) uint64 { return p.v.Add(d) }

// CompareAndSwap executes the CAS on the counter.
func (p *U64) CompareAndSwap(old, new uint64) bool { return p.v.CompareAndSwap(old, new) }
