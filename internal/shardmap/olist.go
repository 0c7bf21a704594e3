// The ordered index: a refcounted transactional skip list (the paper's
// §3 skip list, grown a reference count per entry) maintained next to
// the hash map so the same short transactions that mutate the map keep
// an ordered view of its keys. Entries are string-keyed and own their
// key storage — the hash map's arena nodes move during a resize, so the
// index can never hold handles into it.
//
// # Protocol
//
// Every entry carries a reference count. A map insert takes a reference
// on its key's entry (creating it at count 1 when absent) *before* the
// key is published in the hash chain; a map delete releases the
// reference *after* the key is unlinked. A live map key therefore
// always implies a present index entry — scans walk the index and
// verify each candidate against the hash map, so they can never miss a
// live key and never emit a dead one.
//
// The count reaches zero only in the commit that also marks the entry's
// level-0 link (and, transitively, splices it out of the level-0
// chain), giving the central invariant:
//
//	level-0 link unmarked  ⟹  cnt ≥ 1
//
// which lets a reference-take validate just the level-0 link: observing
// it unmarked while locking the count proves the entry is not half
// removed. The remover first marks levels lvl-1..1 top-down (each a
// 2-location short transaction revalidating cnt == 1, so a concurrent
// take aborts the removal and merely degrades the entry's height), and
// searches lazily splice marked higher-level links out (Harris-style
// helping via Tx_Single_CAS). The final level-0 step is one 3-location
// short transaction over (cnt, level-0 link, predecessor link): it
// validates cnt == 1, writes cnt = 0, marks the link and splices — all
// atomically — and only its winner retires the node.
//
// Op → arity:
//
//	search step        Tx_Single_Read (+ Tx_Single_CAS helping)
//	take reference     ShortRO1(next₀) + LockRead(cnt) → ShortRO1RW1
//	insert (publish)   Tx_Single_CAS on the predecessor's level-0 link
//	insert (raise)     ShortRW2 over (node.nextL, pred.nextL) per level
//	drop (cnt > 1)     ShortRO1(next₀) + LockRead(cnt) → ShortRO1RW1
//	drop (mark level)  ShortRW2 over (cnt, node.nextL) per level
//	drop (unlink)      ShortRW3 over (cnt, node.next₀, pred.next₀)
//
// # Cost
//
// A mutation is one O(log n) search: raise and the level-0 unlink commit
// against the predecessors that search left in the thread's scratch (see
// their comments for when they search again, and for the one second
// search that has to stay). Heights are drawn with p = ¼, and a step
// compares the two prefix words stored in the entry, next to the tower,
// so a descent reads the separately allocated key bytes only on a
// 16-byte tie. DESIGN.md "What an index operation costs" has the model.
package shardmap

import (
	"encoding/binary"
	"sync/atomic"

	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

const (
	// idxMaxLevel caps tower height. Heights are drawn with p = ¼
	// (rng.Level4), so next[L] links n/4^L of n entries: ten levels keep
	// the top one at a single entry up to 4^9 = 256 Ki entries, and it
	// lengthens slowly past that (4 entries at 1 Mi, 16 at 4 Mi).
	idxMaxLevel = 10

	// Index cell identities: bit 54 separates them from hash-map node
	// cells (whose handle<<2|field never reaches bit 50) under the same
	// per-structure <<55 tag space; handle<<5|field picks the cell.
	idIndexBit    = uint64(1) << 54
	idxFieldShift = 5
	idxFieldCnt   = 0               // field 0: refcount; field 1+L: next[L]
	idxFieldHint  = 1 + idxMaxLevel // the primary index's hash-node hint
)

// inode is one index entry. Everything but cnt, hint and next, the
// transactional words, is immutable after publication. The prefix words
// sit against the tower because those are what a search step reads: p0,
// p1 and next[lv] are 40 contiguous bytes at level 0 and 56 at level 1;
// hint, key and hash, which a scan reads with next[0], come just before
// them. With the arena's generation word an entry is 248 B
// (TestInodeLayout).
type inode struct {
	split  int32 // secondary entries: length of the index-key half of key
	lvl    int32
	cnt    core.Cell
	hint   core.Cell // primary index: the key's hash node, or empty (see ordered.go)
	key    string
	hash   uint64 // primary index: the key's map hash, for Scan's verification
	p0, p1 uint64 // prefixWords(key)
	next   [idxMaxLevel]core.Cell
}

// prefixWords returns key[0:8] and key[8:16] as big-endian words, zero
// padded. Comparing (p0, p1) and then, on a tie, the keys themselves
// orders entries exactly as comparing the keys does: where two padded
// prefixes first differ either both keys have that byte, or the shorter
// key is a proper prefix of the longer and its padding byte is the
// smaller.
func prefixWords(key string) (p0, p1 uint64) {
	var b [16]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// less reports n.key < key, given key's prefix words.
func (n *inode) less(p0, p1 uint64, key string) bool {
	if n.p0 != p0 {
		return n.p0 < p0
	}
	if n.p1 != p1 {
		return n.p1 < p1
	}
	return n.key < key
}

// olist is one ordered index: a skip list of refcounted entries.
type olist struct {
	m     *Map
	a     *arena.Arena[inode]
	idTag uint64
	level func(*rng.State) int // draws a fresh entry's height; tests force tall towers
	head  [idxMaxLevel]core.Cell
}

func newOlist(m *Map, seq *atomic.Uint64) *olist {
	ol := &olist{
		m:     m,
		a:     arena.New[inode](),
		idTag: seq.Add(1)<<idShardShift | idIndexBit,
		level: func(r *rng.State) int { return r.Level4(idxMaxLevel) },
	}
	for i := range ol.head {
		ol.head[i].Init(word.Null)
	}
	return ol
}

func (ol *olist) headVar(lv int) core.Var {
	return ol.m.e.VarOf(&ol.head[lv], ol.idTag|uint64(1+lv))
}

func (ol *olist) nextVar(h arena.Handle, n *inode, lv int) core.Var {
	return ol.m.e.VarOf(&n.next[lv], ol.idTag|uint64(h)<<idxFieldShift|uint64(1+lv))
}

func (ol *olist) cntVar(h arena.Handle, n *inode) core.Var {
	return ol.m.e.VarOf(&n.cnt, ol.idTag|uint64(h)<<idxFieldShift|idxFieldCnt)
}

func (ol *olist) hintVar(h arena.Handle, n *inode) core.Var {
	return ol.m.e.VarOf(&n.hint, ol.idTag|uint64(h)<<idxFieldShift|idxFieldHint)
}

// search descends the list for the first entry ≥ key, filling the
// thread's ipreds/isuccs scratch with, per level, the predecessor link
// Var and the successor value it held. It returns the entry's handle
// when an exact match heads level 0. Marked higher-level links met on
// the way are spliced out (helping the remover that marked them); a
// marked link read *from* a predecessor means that predecessor is being
// removed, and the search restarts. Entries visited are counted into the
// thread's idxSteps, one add per search.
func (ol *olist) search(x *Thread, key string) (arena.Handle, bool) {
	p0, p1 := prefixWords(key)
	steps := uint64(0)
restart:
	for {
		var predH arena.Handle
		var predN *inode
		for lv := idxMaxLevel - 1; lv >= 0; lv-- {
			predV := ol.headVar(lv)
			if predN != nil {
				predV = ol.nextVar(predH, predN, lv)
			}
			for {
				link := x.t.SingleRead(predV)
				if link.Marked() {
					continue restart // pred unlinked at this level under us
				}
				if link.IsNull() {
					x.ipreds[lv], x.isuccs[lv] = predV, word.Null
					break
				}
				c := dec(link)
				cn := ol.a.Get(c)
				steps++
				cnext := x.t.SingleRead(ol.nextVar(c, cn, lv))
				if cnext.Marked() {
					// c is being removed. At levels ≥ 1 splice it out (its
					// marked link is final, so the splice is always safe);
					// at level 0 the mark and the splice committed
					// together, so re-reading pred's link skips it.
					if lv > 0 {
						x.t.SingleCAS(predV, link, cnext.WithoutMark())
					}
					continue
				}
				if cn.less(p0, p1, key) {
					predH, predN, predV = c, cn, ol.nextVar(c, cn, lv)
					continue
				}
				x.ipreds[lv], x.isuccs[lv] = predV, link
				break
			}
		}
		x.ops.idxSearches.Add(1)
		x.ops.idxSteps.Add(steps)
		if !x.isuccs[0].IsNull() {
			h := dec(x.isuccs[0])
			if n := ol.a.Get(h); n.p0 == p0 && n.p1 == p1 && n.key == key {
				return h, true
			}
		}
		return 0, false
	}
}

// add takes one reference on key's entry, inserting the entry at a
// geometric random level when absent. hash (the primary index's cached
// map hash) and split (secondary composite keys) are recorded on a fresh
// entry. The caller holds an epoch pin.
func (ol *olist) add(x *Thread, key string, hash uint64, split int) {
	var spare arena.Handle
	for attempt := 1; ; attempt++ {
		h, found := ol.search(x, key)
		if found {
			n := ol.a.Get(h)
			ro, nv := x.t.ShortRO1(ol.nextVar(h, n, 0))
			if nv.Marked() {
				ro.Discard()
				continue // removal committed under us; re-resolve
			}
			c, cv := ro.LockRead(ol.cntVar(h, n))
			if c.Commit(word.FromUint(cv.Uint() + 1)) {
				if !spare.IsNil() {
					ol.a.Free(spare) // lost an earlier insert race; never published
				}
				return
			}
			x.t.Backoff(attempt)
			continue
		}
		if spare.IsNil() {
			var n *inode
			spare, n = ol.a.Alloc()
			n.key, n.hash, n.split = key, hash, int32(split)
			n.p0, n.p1 = prefixWords(key)
			n.lvl = int32(ol.level(x.t.Rng))
		}
		n := ol.a.Get(spare)
		n.cnt.Init(word.FromUint(1))
		n.next[0].Init(x.isuccs[0])
		if x.t.SingleCAS(x.ipreds[0], x.isuccs[0], enc(spare)) != x.isuccs[0] {
			continue // publish race; retry from a fresh search
		}
		ol.raise(x, spare, n)
		return
	}
}

// raise links a freshly published entry into levels 1..lvl-1. Each
// level commits (node.nextL ← succ, pred.nextL ← node) in one 2-location
// short transaction validating that the node is still unmarked at that
// level and the predecessor still points at the successor the search
// saw. Linking stops if the entry is removed mid-raise; a partially
// raised entry is simply shorter than its drawn level.
//
// The predecessors are the ones the publishing search left in the
// thread's scratch; raise searches again only when a level's validation
// finds its predecessor link changed. Reuse adds no interleaving: a
// window between a search and the commit that trusts it always existed,
// and the commit's own validation is what closes it. An unmarked link
// equal to the value the search read proves the predecessor is still
// linked at that level (upper levels are marked before they are
// spliced), keys never change, and the epoch pin add's caller holds
// keeps every handle in the scratch from being recycled. A removal that
// ran to completion in the window left every level of the tower marked
// (remove marks up to the drawn height, not the raised one), which is
// the nv.Marked exit below.
func (ol *olist) raise(x *Thread, h arena.Handle, n *inode) {
	for lv := 1; lv < int(n.lvl); lv++ {
		for attempt := 1; ; attempt++ {
			d, nv, pv := x.t.ShortRW2(ol.nextVar(h, n, lv), x.ipreds[lv])
			if !d.Valid() {
				x.t.Backoff(attempt)
				continue
			}
			if nv.Marked() {
				d.Abort()
				return // removal reached this level first
			}
			if pv == x.isuccs[lv] {
				d.Commit(pv, enc(h))
				break
			}
			d.Abort() // chain moved since the search
			if h2, found := ol.search(x, n.key); !found || h2 != h {
				return // removed (and possibly reinserted) under us
			}
		}
	}
}

// drop releases one reference on key's entry, removing the entry when
// the last reference goes. A missing entry is tolerated (replay and
// secondary maintenance can race removals). The caller holds an epoch
// pin.
func (ol *olist) drop(x *Thread, key string) {
	if h, found := ol.search(x, key); found {
		ol.release(x, key, h)
	}
}

// release is drop after the search: h is key's entry as a search just
// found it, and that search's predecessors are in the thread's scratch,
// which the level-0 unlink of an entry of height one commits against
// (see remove). It searches again only when the entry turns out to be
// removed or resurrected under it.
func (ol *olist) release(x *Thread, key string, h arena.Handle) {
	for attempt := 1; ; attempt++ {
		n := ol.a.Get(h)
		ro, nv := x.t.ShortRO1(ol.nextVar(h, n, 0))
		if nv.Marked() {
			ro.Discard()
		} else {
			c, cv := ro.LockRead(ol.cntVar(h, n))
			if cv.Uint() > 1 {
				if c.Commit(word.FromUint(cv.Uint() - 1)) {
					return
				}
				x.t.Backoff(attempt)
				continue
			}
			// Ours is the last reference (a conflicted read can land here
			// spuriously; remove revalidates cnt == 1 transactionally).
			c.Discard()
			if ol.remove(x, h, n) {
				return
			}
		}
		// Removed or resurrected under us; re-resolve.
		var found bool
		if h, found = ol.search(x, key); !found {
			return
		}
	}
}

// remove retires the entry assuming the caller owns its last reference.
// Levels lvl-1..1 are marked top-down, then one ShortRW3 validates
// cnt == 1, writes cnt = 0, marks level 0 and splices the entry out in
// a single commit — the only writer of cnt = 0, preserving the
// "unmarked level-0 link implies cnt ≥ 1" invariant add relies on.
// False means a concurrent add resurrected the entry (the caller then
// retries its drop against the raised count).
//
// An entry of height one unlinks against the level-0 predecessor the
// releasing search found (drop's, or the map delete's), and searches
// again only if the commit finds that link moved: as in raise, the
// ShortRW3 validates everything it trusts (an unmarked level-0 link is a
// linked predecessor, because level 0 is marked and spliced in one
// commit). A taller entry must search after its upper levels are
// marked, whatever that search found: that descent is the
// pass that help-splices the entry out of every level it was linked at,
// and it has to finish before Retire hands the slot to the arena.
func (ol *olist) remove(x *Thread, h arena.Handle, n *inode) bool {
	for lv := int(n.lvl) - 1; lv >= 1; lv-- {
		for attempt := 1; ; attempt++ {
			d, cv, nv := x.t.ShortRW2(ol.cntVar(h, n), ol.nextVar(h, n, lv))
			if !d.Valid() {
				x.t.Backoff(attempt)
				continue
			}
			if cv.Uint() != 1 {
				d.Abort()
				return false // resurrected
			}
			if nv.Marked() {
				d.Abort() // already marked (an earlier attempt of ours)
				break
			}
			d.Commit(cv, nv.WithMark())
			break
		}
	}
	stale := n.lvl > 1
	for attempt := 1; ; attempt++ {
		if stale {
			if h2, found := ol.search(x, n.key); !found || h2 != h {
				// Gone: a resurrect + concurrent drop consumed the entry.
				return false
			}
			stale = false
		}
		d, cv, nv, pv := x.t.ShortRW3(ol.cntVar(h, n), ol.nextVar(h, n, 0), x.ipreds[0])
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if cv.Uint() != 1 {
			d.Abort()
			return false // resurrected
		}
		if nv.Marked() || pv != enc(h) {
			d.Abort()
			stale = true // re-resolve the predecessor
			continue
		}
		d.Commit(word.Null, nv.WithMark(), nv)
		x.t.Epoch.Retire(ol.a, uint64(h))
		return true
	}
}
