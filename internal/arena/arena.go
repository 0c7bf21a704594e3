// Package arena provides chunked, generational object arenas.
//
// The paper stores aligned C pointers directly in transactional words,
// using the spare low-order bits for the STM lock bit and the "deleted"
// mark. Go cannot pack raw pointers into integers without unsafe, so this
// reproduction stores *handles* instead: stable 48-bit identifiers that
// index into an arena whose slots never move.
//
// Handle layout (fits comfortably in the 62-bit payload of word.Value):
//
//	bits  0..15  index within chunk
//	bits 16..31  chunk number
//	bits 32..47  generation
//
// Slots are recycled through a free list. Every Free bumps the slot's
// generation, so a recycled slot yields a handle that compares unequal to
// every handle previously minted for that slot. This gives the paper's
// §2.4 "non-re-use" property a concrete mechanism: a value (handle) is
// never stored into the heap twice, which is what makes value-based
// validation sound for pointer-like data.
//
// Allocation is lock-free on the bump-pointer path, which is the path
// taken whenever the free list is empty (an atomic length says so without
// the lock); the free list and chunk installation use short critical
// sections.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Handle identifies an arena slot. The zero Handle is the nil reference.
type Handle uint64

const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift // slots per chunk
	idxMask    = chunkSize - 1

	maxChunks = 1 << 16 // directory capacity: 2^32 slots

	genShift = 32
	genMask  = 0xffff

	// MaxHandle bounds the encodable handle space.
	MaxHandle = Handle(1<<48 - 1)
)

// slotOf extracts the 32-bit slot number (chunk·index).
func (h Handle) slot() uint64 { return uint64(h) & 0xffffffff }

// Gen extracts the generation.
func (h Handle) Gen() uint64 { return (uint64(h) >> genShift) & genMask }

// IsNil reports whether h is the nil handle.
func (h Handle) IsNil() bool { return h == 0 }

func makeHandle(slot, gen uint64) Handle {
	return Handle(slot | (gen&genMask)<<genShift)
}

// chunk is one block of slots. gens[i] is the next generation to mint
// for slot i, written only while the slot is free. Keeping generations
// in a side array makes a slot exactly one T, and a chunk is one large
// allocation that starts on a page boundary, so a T whose size is a
// multiple of 64 B never straddles a cache line.
type chunk[T any] struct {
	vals [chunkSize]T
	gens [chunkSize]uint16
}

// Arena is a chunked generational arena of T.
type Arena[T any] struct {
	chunks []atomic.Pointer[chunk[T]]

	// next is the bump cursor over never-yet-used slot numbers.
	next atomic.Uint64

	mu    sync.Mutex
	free  []Handle     // recycled slots, with post-bump generations
	nfree atomic.Int64 // len(free), written under mu; lets Alloc skip the lock when it is 0

	allocs atomic.Uint64
	frees  atomic.Uint64
}

// New returns an empty arena. Slot number 0 is permanently reserved so
// that Handle(0) can serve as nil.
func New[T any]() *Arena[T] {
	a := &Arena[T]{chunks: make([]atomic.Pointer[chunk[T]], maxChunks)}
	a.next.Store(1)
	return a
}

// Alloc returns a fresh handle and a pointer to its zeroed slot.
// It panics if the arena is exhausted (2^32 live slots), which in this
// repository means a test or benchmark configuration error.
func (a *Arena[T]) Alloc() (Handle, *T) {
	a.allocs.Add(1)
	// Recycled slot, if there is one. A Free racing the length check is
	// picked up by a later Alloc.
	if a.nfree.Load() > 0 {
		a.mu.Lock()
		if n := len(a.free); n > 0 {
			h := a.free[n-1]
			a.free = a.free[:n-1]
			a.nfree.Store(int64(n - 1))
			a.mu.Unlock()
			c, i := a.chunkOf(h.slot())
			var zero T
			c.vals[i] = zero
			return h, &c.vals[i]
		}
		a.mu.Unlock()
	}

	slot := a.next.Add(1) - 1
	if slot >= uint64(maxChunks)*chunkSize {
		panic("arena: exhausted")
	}
	c, i := a.chunkOf(slot) // installs the chunk if needed
	return makeHandle(slot, uint64(c.gens[i])), &c.vals[i]
}

// Get resolves a handle to its slot. Get does not validate the
// generation — like a pointer dereference, resolving a stale handle is a
// protocol violation that epoch-based reclamation exists to prevent. Use
// Validate in assertions and tests.
func (a *Arena[T]) Get(h Handle) *T {
	c, i := a.chunkOf(h.slot())
	return &c.vals[i]
}

// Validate reports whether h currently names a live slot of the right
// generation. It is for tests and debug assertions only: the answer can
// be stale by the time the caller uses it.
func (a *Arena[T]) Validate(h Handle) bool {
	if h.IsNil() {
		return false
	}
	slot := h.slot()
	if slot >= a.next.Load() {
		return false
	}
	c, i := a.chunkOf(slot)
	return uint64(c.gens[i]) == h.Gen()
}

// Free recycles the slot named by h. The caller must guarantee that no
// other thread can still dereference h — in this repository that guarantee
// comes from epoch-based reclamation. The slot's generation is bumped so
// future handles for it are distinct.
func (a *Arena[T]) Free(h Handle) {
	if h.IsNil() {
		panic("arena: free of nil handle")
	}
	c, i := a.chunkOf(h.slot())
	if uint64(c.gens[i]) != h.Gen() {
		panic(fmt.Sprintf("arena: double free or stale free of %#x (slot gen %d, handle gen %d)",
			uint64(h), c.gens[i], h.Gen()))
	}
	c.gens[i]++ // a uint16: wraps at genMask
	a.frees.Add(1)
	a.mu.Lock()
	a.free = append(a.free, makeHandle(h.slot(), uint64(c.gens[i])))
	a.nfree.Store(int64(len(a.free)))
	a.mu.Unlock()
}

// Reclaim implements the epoch.Resource interface, letting retired handles
// flow from limbo lists straight back into this arena.
func (a *Arena[T]) Reclaim(h uint64) { a.Free(Handle(h)) }

// Live returns the number of currently allocated slots.
func (a *Arena[T]) Live() uint64 { return a.allocs.Load() - a.frees.Load() }

// chunkOf resolves a slot number to its chunk and index there,
// installing the chunk on first touch.
func (a *Arena[T]) chunkOf(slot uint64) (*chunk[T], uint64) {
	ci := slot >> chunkShift
	p := a.chunks[ci].Load()
	if p == nil {
		fresh := new(chunk[T])
		if a.chunks[ci].CompareAndSwap(nil, fresh) {
			p = fresh
		} else {
			p = a.chunks[ci].Load()
		}
	}
	return p, slot & idxMask
}
