// Package lockfree provides the CAS-based baselines the paper compares
// against ("lock-free are lock-free implementations of the data
// structures, based on the designs from Fraser's thesis", §4.2): a
// Harris–Michael linked list, a hash table of such lists, and a
// Fraser-style skip list. All of them store arena handles in their link
// words, with the "deleted" mark in the word's mark bit, and reclaim
// memory through epoch-based reclamation — the same machinery the SpecTM
// data structures use, so comparisons are apples-to-apples.
package lockfree

import (
	"sync/atomic"

	"spectm/internal/arena"
	"spectm/internal/epoch"
	"spectm/internal/word"
)

// enc packs a handle into a link word.
func enc(h arena.Handle) uint64 { return uint64(word.FromUint(uint64(h))) }

// dec extracts the handle from a link word, ignoring the mark.
func dec(w uint64) arena.Handle { return arena.Handle(word.Value(w).Uint()) }

// marked reports the link word's deleted bit.
func marked(w uint64) bool { return word.Value(w).Marked() }

// mark returns w with the deleted bit set.
func mark(w uint64) uint64 { return uint64(word.Value(w).WithMark()) }

// unmark returns w with the deleted bit cleared.
func unmark(w uint64) uint64 { return uint64(word.Value(w).WithoutMark()) }

// LNode is a sorted-list node.
type LNode struct {
	Key  uint64
	next uint64 // link word: enc(handle) | mark
}

// List is a Harris–Michael sorted linked list of unique keys. It is the
// building block for the lock-free hash table's buckets.
type List struct {
	a    *arena.Arena[LNode]
	head uint64 // link word
}

// NewList returns an empty list backed by a private arena.
func NewList() *List { return &List{a: arena.New[LNode]()} }

// newListOn returns an empty list sharing the arena a (hash buckets).
func newListOn(a *arena.Arena[LNode]) *List { return &List{a: a} }

// find positions on key: it returns the link word holding the first node
// with Key >= key (prev), that node's link value (curW, 0 if tail), and
// whether its key equals key. Marked nodes encountered on the way are
// physically unlinked and retired. The caller must be inside an epoch
// critical section.
func (l *List) find(s *epoch.Slot, key uint64) (prev *uint64, curW uint64, found bool) {
retry:
	prev = &l.head
	curW = atomic.LoadUint64(prev)
	for {
		if curW == 0 {
			return prev, 0, false
		}
		cur := dec(curW)
		n := l.a.Get(cur)
		nextW := atomic.LoadUint64(&n.next)
		if marked(nextW) {
			// cur is logically deleted: help unlink. Whoever wins the
			// unlink owns the retire.
			if !atomic.CompareAndSwapUint64(prev, curW, unmark(nextW)) {
				goto retry
			}
			s.Retire(l.a, uint64(cur))
			curW = unmark(nextW)
			continue
		}
		if n.Key >= key {
			return prev, curW, n.Key == key
		}
		prev = &n.next
		curW = nextW
	}
}

// Contains reports whether key is in the list.
func (l *List) Contains(s *epoch.Slot, key uint64) bool {
	s.Enter()
	defer s.Exit()
	// Read-only traversal: skip marked nodes without helping.
	curW := atomic.LoadUint64(&l.head)
	for curW != 0 {
		n := l.a.Get(dec(curW))
		nextW := atomic.LoadUint64(&n.next)
		if !marked(nextW) && n.Key >= key {
			return n.Key == key
		}
		curW = unmark(nextW) // a deleted tail's link is a marked null
	}
	return false
}

// Add inserts key; it returns false if already present.
func (l *List) Add(s *epoch.Slot, key uint64) bool {
	s.Enter()
	defer s.Exit()
	for {
		prev, curW, found := l.find(s, key)
		if found {
			return false
		}
		h, n := l.a.Alloc()
		n.Key = key
		atomic.StoreUint64(&n.next, curW)
		if atomic.CompareAndSwapUint64(prev, curW, enc(h)) {
			return true
		}
		l.a.Free(h) // never published; immediate reuse is safe
	}
}

// Remove deletes key; it returns false if absent.
func (l *List) Remove(s *epoch.Slot, key uint64) bool {
	s.Enter()
	defer s.Exit()
	for {
		prev, curW, found := l.find(s, key)
		if !found {
			return false
		}
		n := l.a.Get(dec(curW))
		nextW := atomic.LoadUint64(&n.next)
		if marked(nextW) {
			continue // another remover won; re-find
		}
		if !atomic.CompareAndSwapUint64(&n.next, nextW, mark(nextW)) {
			continue
		}
		// Logical deletion done; try to unlink eagerly. On failure a
		// later find() will unlink (and retire).
		if atomic.CompareAndSwapUint64(prev, curW, nextW) {
			s.Retire(l.a, uint64(dec(curW)))
		}
		return true
	}
}

// Len counts live keys (for tests; not linearizable under concurrency).
func (l *List) Len(s *epoch.Slot) int {
	s.Enter()
	defer s.Exit()
	n := 0
	curW := atomic.LoadUint64(&l.head)
	for curW != 0 {
		nd := l.a.Get(dec(curW))
		nextW := atomic.LoadUint64(&nd.next)
		if !marked(nextW) {
			n++
		}
		curW = unmark(nextW)
	}
	return n
}

// Hash is the lock-free hash table: a fixed array of bucket lists, as in
// the paper's evaluation (number of buckets chosen per workload).
type Hash struct {
	a       *arena.Arena[LNode]
	dom     *epoch.Domain
	buckets []List
	mask    uint64
}

// NewHash creates a table with nBuckets (rounded up to a power of two)
// supporting maxThreads concurrent registered threads.
func NewHash(nBuckets, maxThreads int) *Hash {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	h := &Hash{
		a:       arena.New[LNode](),
		dom:     epoch.NewDomain(maxThreads),
		buckets: make([]List, n),
		mask:    uint64(n - 1),
	}
	for i := range h.buckets {
		h.buckets[i] = *newListOn(h.a)
	}
	return h
}

// Register returns a per-thread epoch slot for use with this table.
func (h *Hash) Register() *epoch.Slot { return h.dom.Register() }

func (h *Hash) bucket(key uint64) *List { return &h.buckets[key&h.mask] }

// Contains reports membership of key.
func (h *Hash) Contains(s *epoch.Slot, key uint64) bool { return h.bucket(key).Contains(s, key) }

// Add inserts key; false if already present.
func (h *Hash) Add(s *epoch.Slot, key uint64) bool { return h.bucket(key).Add(s, key) }

// Remove deletes key; false if absent.
func (h *Hash) Remove(s *epoch.Slot, key uint64) bool { return h.bucket(key).Remove(s, key) }
