// Transactional hash tables: sorted bucket chains of arena nodes.
//
// HashFull expresses every operation as one ordinary transaction (the
// §2.1 style). HashShort uses the specialized API: lookups and inserts
// are single-location transactions (the chain walk itself is a sequence
// of Tx_Single_Reads), and removal is a 2-location short read-write
// transaction that atomically marks the node and unlinks it — the
// multi-word atomic update that replaces the two-phase mark-then-unlink
// dance of the CAS-based algorithm.
package stmset

import (
	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// hnode is one chain node.
type hnode struct {
	key  uint64
	next core.Cell
}

// hashShared is the storage common to both hash variants.
type hashShared struct {
	e       *core.Engine
	a       *arena.Arena[hnode]
	buckets []core.Cell
	mask    uint64
}

func newHashShared(e *core.Engine, nBuckets int) *hashShared {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	if n > MaxBuckets {
		panic("stmset: bucket count out of range")
	}
	h := &hashShared{e: e, a: arena.New[hnode](), buckets: make([]core.Cell, n), mask: uint64(n - 1)}
	for i := range h.buckets {
		h.buckets[i].Init(word.Null)
	}
	return h
}

// bucketVar returns the Var of bucket b's head link.
func (h *hashShared) bucketVar(b uint64) core.Var {
	return h.e.VarOf(&h.buckets[b], idBucketBase+b)
}

// nextVar returns the Var of a node's next link.
func (h *hashShared) nextVar(hd arena.Handle, n *hnode) core.Var {
	return h.e.VarOf(&n.next, uint64(hd)<<idNodeShift)
}

// HashFull is the ordinary-transaction hash table (BaseTM style).
type HashFull struct {
	s *hashShared
}

// NewHashFull creates a table with nBuckets chains over engine e.
func NewHashFull(e *core.Engine, nBuckets int) *HashFull {
	return &HashFull{s: newHashShared(e, nBuckets)}
}

// NewThread registers a worker.
func (h *HashFull) NewThread() Thread {
	return &hashFullThread{s: h.s, t: h.s.e.Register()}
}

type hashFullThread struct {
	s *hashShared
	t *core.Thr
}

func (x *hashFullThread) Thr() *core.Thr { return x.t }

// walk locates key inside the current transaction. It returns the link
// Var to update for an insert/remove, the link's current value, the
// candidate handle and whether the key was found. On transaction abort
// the reads return Null and the walk terminates harmlessly; the commit
// will fail and the caller retries.
func (x *hashFullThread) walk(key uint64) (prev core.Var, link word.Value, cur arena.Handle, found bool) {
	s := x.s
	prev = s.bucketVar(key & s.mask)
	link = x.t.TxRead(prev)
	for !link.IsNull() {
		cur = dec(link)
		n := s.a.Get(cur)
		if n.key >= key {
			return prev, link, cur, n.key == key
		}
		prev = s.nextVar(cur, n)
		link = x.t.TxRead(prev)
	}
	return prev, word.Null, 0, false
}

// Contains reports membership of key.
func (x *hashFullThread) Contains(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	var found bool
	x.t.Atomic(func() bool {
		_, _, _, found = x.walk(key)
		return true
	})
	return found
}

// Add inserts key; false if present.
func (x *hashFullThread) Add(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	var inserted bool
	var spare arena.Handle // reuse the node across retries
	x.t.Atomic(func() bool {
		prev, link, _, found := x.walk(key)
		if found {
			inserted = false
			return true
		}
		if !x.t.TxOK() {
			return true // doomed; commit will fail and retry
		}
		if spare.IsNil() {
			var n *hnode
			spare, n = x.s.a.Alloc()
			n.key = key
		}
		x.s.a.Get(spare).next.Init(link)
		x.t.TxWrite(prev, enc(spare))
		inserted = true
		return true
	})
	if !inserted && !spare.IsNil() {
		x.s.a.Free(spare) // never published
	}
	return inserted
}

// Remove deletes key; false if absent.
func (x *hashFullThread) Remove(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	var removed bool
	var victim arena.Handle
	x.t.Atomic(func() bool {
		prev, _, cur, found := x.walk(key)
		if !found {
			removed = false
			victim = 0
			return true
		}
		if !x.t.TxOK() {
			return true
		}
		n := x.s.a.Get(cur)
		x.t.TxWrite(prev, x.t.TxRead(x.s.nextVar(cur, n)))
		removed = true
		victim = cur
		return true
	})
	if removed && !victim.IsNil() {
		x.t.Epoch.Retire(x.s.a, uint64(victim))
	}
	return removed
}

// HashShort is the specialized-API hash table (§2.2–2.4). The same code
// runs over every meta-data layout — instantiating it on a LayoutVal
// engine yields the paper's val-short variant.
type HashShort struct {
	s *hashShared
}

// NewHashShort creates a table with nBuckets chains over engine e.
func NewHashShort(e *core.Engine, nBuckets int) *HashShort {
	return &HashShort{s: newHashShared(e, nBuckets)}
}

// NewThread registers a worker.
func (h *HashShort) NewThread() Thread {
	return &hashShortThread{s: h.s, t: h.s.e.Register()}
}

type hashShortThread struct {
	s *hashShared
	t *core.Thr
}

func (x *hashShortThread) Thr() *core.Thr { return x.t }

// search walks the chain with single-location transactions. Live links
// are never marked (removal unlinks atomically), so encountering a
// marked link means the node under our feet was just removed; restart.
func (x *hashShortThread) search(key uint64) (prev core.Var, link word.Value, cur arena.Handle, found bool) {
	s := x.s
restart:
	prev = s.bucketVar(key & s.mask)
	link = x.t.SingleRead(prev)
	for !link.IsNull() {
		cur = dec(link)
		n := s.a.Get(cur)
		if n.key >= key {
			return prev, link, cur, n.key == key
		}
		prev = s.nextVar(cur, n)
		link = x.t.SingleRead(prev)
		if link.Marked() {
			goto restart
		}
	}
	return prev, word.Null, 0, false
}

// Contains walks with single reads, treating marked nodes as absent.
func (x *hashShortThread) Contains(key uint64) bool {
	s := x.s
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	w := x.t.SingleRead(s.bucketVar(key & s.mask))
	for !w.IsNull() {
		n := s.a.Get(dec(w))
		nw := x.t.SingleRead(s.nextVar(dec(w), n))
		if n.key >= key {
			return n.key == key && !nw.Marked()
		}
		w = nw.WithoutMark()
	}
	return false
}

// Add inserts key with a single-location CAS transaction; false if
// present.
func (x *hashShortThread) Add(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	var spare arena.Handle
	for {
		prev, link, _, found := x.search(key)
		if found {
			if !spare.IsNil() {
				x.s.a.Free(spare)
			}
			return false
		}
		if spare.IsNil() {
			var n *hnode
			spare, n = x.s.a.Alloc()
			n.key = key
		}
		x.s.a.Get(spare).next.Init(link)
		if x.t.SingleCAS(prev, link, enc(spare)) == link {
			return true
		}
	}
}

// Remove deletes key with a 2-location short read-write transaction that
// marks the node and splices it out atomically; false if absent.
func (x *hashShortThread) Remove(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; ; attempt++ {
		prev, link, cur, found := x.search(key)
		if !found {
			return false
		}
		n := x.s.a.Get(cur)
		d, nv, pv := x.t.ShortRW2(x.s.nextVar(cur, n), prev)
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if nv.Marked() {
			// Concurrent removal won after our search.
			d.Abort()
			return false
		}
		if pv != link {
			// The chain moved; restart from the search.
			d.Abort()
			continue
		}
		d.Commit(nv.WithMark(), nv)
		x.t.Epoch.Retire(x.s.a, uint64(cur))
		return true
	}
}
