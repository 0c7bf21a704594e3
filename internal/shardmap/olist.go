// The ordered index: a refcounted transactional skip list (the paper's
// §3 skip list, grown a reference count per entry) maintained next to
// the hash map so the same short transactions that mutate the map keep
// an ordered view of its keys. Entries are string-keyed and own their
// key storage; an entry's hint names its key's hash node while the key
// is live (see ordered.go).
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
// helping via Tx_Single_CAS). The final level-0 step is one short
// transaction over (cnt, level-0 link, predecessor link, successor's
// back link): it validates cnt == 1, writes cnt = 0, marks the link and
// splices — all atomically — and only its winner retires the node.
//
// Level 0 is doubly linked. Every entry has a back link, prev, and
//
//	e linked at level 0  ⟹  e.prev is e's level-0 predecessor
//
// (Null for the head): every commit that changes a level-0 link also
// writes the back link of the entry that link now names. So the remover
// finds its predecessor by reading one word, not by searching, and its
// commit validates what it read: a predecessor link that still names
// the entry proves the predecessor linked and adjacent.
//
// Op → arity:
//
//	search step        Tx_Single_Read (+ Tx_Single_CAS helping)
//	take reference     ShortRO1(next₀) + LockRead(cnt) → ShortRO1RW1
//	insert (publish)   ShortRW2 over (pred.next₀, succ.prev); a
//	                   Tx_Single_CAS on pred.next₀ when there is no
//	                   successor (the map's own insert then publishes
//	                   the key's hash node with ShortRW2(pred link,
//	                   entry.hint))
//	insert (raise)     ShortRW2 over (node.nextL, pred.nextL) per level
//	release (cnt > 1)  ShortRO1(next₀) + LockRead(cnt) → ShortRO1RW1
//	release (mark lvl) ShortRW2 over (cnt, node.nextL) per level
//	release (unlink)   Tx_Single_Read(node.prev), then ShortRW3 over
//	                   (cnt, node.next₀, pred.next₀), extended to
//	                   ShortRW4 by succ.prev when there is a successor
//
// # Cost
//
// An insert is one O(log n) search: raise commits against the
// predecessors that search left in the thread's scratch (see its comment
// for when it searches again). A release that holds the entry — the
// map's delete, an insert that lost its race — searches only for an
// entry taller than one level, whose upper levels a descent must
// help-splice before Retire (see remove). Heights are drawn with p = ¼,
// and a step compares the two prefix words stored in the entry, next to
// the tower, so a descent reads the separately allocated key bytes only
// on a 16-byte tie. DESIGN.md "What an index operation costs" has the
// model.
package shardmap

import (
	"encoding/binary"

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
	idxFieldHint  = 1 + idxMaxLevel // the hash-node hint
	idxFieldPrev  = 2 + idxMaxLevel // the level-0 back link

	// idxTag is the index's identity tag: the map has one olist, so it
	// takes the first tag of the per-structure space, told apart from
	// shard 0's by idIndexBit.
	idxTag = 1<<idShardShift | idIndexBit
)

// inode is one index entry. Everything but cnt, prev, hint and next,
// the transactional words, is immutable after publication. The prefix
// words sit against the tower because those are what a search step
// reads: p0, p1 and next[lv] are 24 contiguous bytes at level 0 and 32
// at level 1; hint, key and hash, which a scan reads with next[0], come
// just before them. With 8-byte words an entry is 152 B, lvl padded to
// a word; the arena keeps its generation in a side array
// (TestInodeLayout).
type inode struct {
	lvl    int32
	cnt    core.Word
	prev   core.Word // level-0 predecessor while linked there; Null for the head
	hint   core.Word // the key's hash node, empty iff the key is not live (see ordered.go)
	key    string
	hash   uint64 // the key's map hash, for Scan's verification
	p0, p1 uint64 // prefixWords(key)
	next   [idxMaxLevel]core.Word
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

// olist is the ordered index: a skip list of refcounted entries.
type olist struct {
	m     *Map
	a     *arena.Arena[inode]
	level func(*rng.State) int // draws a fresh entry's height; tests force tall towers
	head  [idxMaxLevel]core.Word
}

func newOlist(m *Map) *olist {
	ol := &olist{
		m:     m,
		a:     arena.New[inode](),
		level: func(r *rng.State) int { return r.Level4(idxMaxLevel) },
	}
	for i := range ol.head {
		ol.head[i].Init(word.Null)
	}
	return ol
}

func (ol *olist) headVar(lv int) core.Var {
	return ol.m.e.WordVar(&ol.head[lv], idxTag|uint64(1+lv))
}

func (ol *olist) nextVar(h arena.Handle, n *inode, lv int) core.Var {
	return ol.m.e.WordVar(&n.next[lv], idxTag|uint64(h)<<idxFieldShift|uint64(1+lv))
}

func (ol *olist) cntVar(h arena.Handle, n *inode) core.Var {
	return ol.m.e.WordVar(&n.cnt, idxTag|uint64(h)<<idxFieldShift|idxFieldCnt)
}

func (ol *olist) hintVar(h arena.Handle, n *inode) core.Var {
	return ol.m.e.WordVar(&n.hint, idxTag|uint64(h)<<idxFieldShift|idxFieldHint)
}

func (ol *olist) prevVar(h arena.Handle, n *inode) core.Var {
	return ol.m.e.WordVar(&n.prev, idxTag|uint64(h)<<idxFieldShift|idxFieldPrev)
}

// link0Var is the level-0 link that names the entry after p, where p is
// an encoded back link: the head's when p is Null.
func (ol *olist) link0Var(p word.Value) core.Var {
	if p.IsNull() {
		return ol.headVar(0)
	}
	h := dec(p)
	return ol.nextVar(h, ol.a.Get(h), 0)
}

// search descends the list for the first entry ≥ key, filling the
// thread's ipreds/isuccs scratch with, per level, the predecessor link
// Var and the successor value it held, and ipred0 with the level-0
// predecessor (nil for the head). It returns the entry's handle
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
		x.ipred0 = predH
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
// geometric random level when absent, and returns the entry. hash (the
// key's map hash) is recorded on a fresh entry. The caller holds an
// epoch pin.
func (ol *olist) add(x *Thread, key string, hash uint64) arena.Handle {
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
				return h
			}
			x.t.Backoff(attempt)
			continue
		}
		if spare.IsNil() {
			var n *inode
			spare, n = ol.a.Alloc()
			n.key, n.hash = key, hash
			n.p0, n.p1 = prefixWords(key)
			n.lvl = int32(ol.level(x.t.Rng))
		}
		n := ol.a.Get(spare)
		n.cnt.Init(word.FromUint(1))
		n.prev.Init(enc(x.ipred0))
		n.next[0].Init(x.isuccs[0])
		if !ol.publish(x, spare, attempt) {
			continue // publish race; retry from a fresh search
		}
		ol.raise(x, spare, n)
		return spare
	}
}

// publish links the fresh entry h, whose level-0 links already name the
// search's predecessor and successor, between them: one commit swings
// the predecessor's level-0 link and the successor's back link to h,
// validating that the predecessor still names the successor. With no
// successor it is one CAS on the predecessor's link.
func (ol *olist) publish(x *Thread, h arena.Handle, attempt int) bool {
	succ := x.isuccs[0]
	if succ.IsNull() {
		return x.t.SingleCAS(x.ipreds[0], succ, enc(h)) == succ
	}
	sh := dec(succ)
	d, pv, _ := x.t.ShortRW2(x.ipreds[0], ol.prevVar(sh, ol.a.Get(sh)))
	if !d.Valid() {
		x.t.Backoff(attempt)
		return false
	}
	if pv != succ {
		d.Abort()
		return false
	}
	d.Commit(enc(h), enc(h))
	return true
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

// release drops one reference on key's entry h: one the caller holds,
// or the entry a search just found. It searches only when the entry
// turns out to be removed or resurrected under it; remove's own search
// of a tall entry aside, releasing a held reference needs none.
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

// removeHook, when a test sets it, runs inside remove's level-0 unlink
// between reading the entry's back link and the commit that trusts it.
var removeHook func(key string)

// remove retires the entry assuming the caller owns its last reference.
// Levels lvl-1..1 are marked top-down, then one commit validates
// cnt == 1, writes cnt = 0, marks level 0 and splices the entry out —
// the only writer of cnt = 0, preserving the "unmarked level-0 link
// implies cnt ≥ 1" invariant add relies on. False means a concurrent
// add resurrected the entry (the caller then retries its release
// against the raised count).
//
// The unlink reads its predecessor from the entry's back link; the
// commit locks that predecessor's level-0 link and retries from a fresh
// read of the back link when the link no longer names the entry (an
// insert or a removal next to it committed in between). The read is
// safe outside the commit: while the entry is linked its back link names
// a linked entry, and the epoch pin keeps that slot from being
// recycled. The commit also locks the successor's back link, named by
// the entry's own level-0 link, and points it at the predecessor.
//
// A taller entry must search after its upper levels are marked: that
// descent is the pass that help-splices the entry out of every level it
// was linked at, and it has to finish before Retire hands the slot to
// the arena.
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
	if n.lvl > 1 {
		if h2, found := ol.search(x, n.key); !found || h2 != h {
			// Gone: a resurrect + concurrent release consumed the entry.
			return false
		}
	}
	for attempt := 1; ; attempt++ {
		p := x.t.SingleRead(ol.prevVar(h, n))
		if removeHook != nil {
			removeHook(n.key)
		}
		d, cv, nv, pv := x.t.ShortRW3(ol.cntVar(h, n), ol.nextVar(h, n, 0), ol.link0Var(p))
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if cv.Uint() != 1 || nv.Marked() {
			// Resurrected. (A marked level-0 link is only ever written
			// with cnt = 0, so a valid cnt == 1 never comes with one.)
			d.Abort()
			return false
		}
		if pv != enc(h) {
			d.Abort() // a neighbour moved since the back link was read
			continue
		}
		if nv.IsNull() {
			d.Commit(word.Null, nv.WithMark(), nv)
		} else {
			sh := dec(nv)
			d4, _ := d.Extend(ol.prevVar(sh, ol.a.Get(sh)))
			if !d4.Valid() {
				x.t.Backoff(attempt)
				continue
			}
			d4.Commit(word.Null, nv.WithMark(), nv, p)
		}
		x.t.Epoch.Retire(ol.a, uint64(h))
		return true
	}
}
