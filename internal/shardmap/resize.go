// Growth without migration. A shard is one list sorted by split-order
// key, then by key, and bucket j is a slot in that list: a dummy entry
// whose word is its own next link and whose key is bits.Reverse64(j)
// (Shalev & Shavit, "Split-ordered lists: lock-free extensible hash
// tables", JACM 2006). At 2^k buckets, bucket j's keys are exactly the
// run between slot j and the next slot in the list, so doubling splits
// every run in two without moving a node: a grow allocates one segment
// of uninitialised slots and publishes the doubled count, and a new
// bucket is linked into the list on first use (initBucket).
package shardmap

import (
	"math/bits"

	"spectm/internal/core"
	"spectm/internal/word"
)

// maybeGrow doubles sh's bucket count when its load factor exceeds
// maxLoad. Only one grower runs per shard; everyone else returns
// immediately.
func (x *Thread) maybeGrow(sh *shard) {
	if sh.size.Load() <= sh.nb.Load()*maxLoad {
		return
	}
	if !sh.mu.TryLock() {
		return
	}
	defer sh.mu.Unlock()
	if sh.size.Load() > sh.nb.Load()*maxLoad {
		sh.grow()
	}
}

// grow doubles sh's bucket count: it allocates the directory segment of
// the new buckets, every slot uninitialised, and then publishes the
// count. The caller holds sh.mu.
//
//spectm:coldpath
func (sh *shard) grow() {
	nb := sh.nb.Load()
	sh.segs[bits.Len64(nb)] = core.NewWords(int(nb), uninit)
	sh.nb.Store(2 * nb)
}

// parent is the bucket that held bucket j's keys before the grow that
// added j: j with its top bit cleared. Bucket 0 has none.
func parent(j uint64) uint64 { return j - 1<<bits.Len64(j)>>1 }

// initBucket links bucket j's slot into sh's list, after its parent's
// (which it initialises first, recursively): it walks from the parent's
// slot to the first entry whose key is not less than the slot's, and
// commits one ShortRW2 that points the slot at that entry and the link
// before it at the slot. The commit applies only while the slot is still
// uninitialised and the link has not moved, so of racing initialisers
// exactly one links the slot. Slot 0 heads the list and is never
// uninitialised.
func (x *Thread) initBucket(sh *shard, j uint64) {
	p := parent(j)
	pv := x.m.slotVar(sh, p)
	if x.t.SingleRead(pv) == uninit {
		x.initBucket(sh, p)
	}
	sv := x.m.slotVar(sh, j)
	key := bits.Reverse64(j)
	for attempt := 1; ; attempt++ {
		prev, link, ok := x.seek(sh, pv, key)
		if !ok {
			continue
		}
		d, pl, sl := x.t.ShortRW2(prev, sv)
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if sl != uninit {
			d.Abort() // another thread linked it
			return
		}
		if pl != link {
			d.Abort() // the list moved since the walk
			continue
		}
		d.Commit(ref(j), link)
		return
	}
}

// seek walks from the slot word from to the first entry whose key is
// not less than a slot's key: a node whose split-order key is at least
// key, or a slot whose key is. It returns the link before that entry
// and the link's value; ok=false means the walk crossed a marked link.
func (x *Thread) seek(sh *shard, from core.Var, key uint64) (prev core.Var, link word.Value, ok bool) {
	prev = from
	for {
		link = x.t.SingleRead(prev)
		switch {
		case link.Marked():
			return prev, link, false
		case link.IsNull():
			return prev, link, true
		case isRef(link):
			j := refIdx(link)
			if bits.Reverse64(j) >= key {
				return prev, link, true
			}
			prev = x.m.slotVar(sh, j)
		default:
			h := dec(link)
			n := sh.a.Get(h)
			if n.hash >= key {
				return prev, link, true
			}
			prev = x.m.nextVar(sh, h, n)
		}
	}
}

// start returns h's bucket at sh's current count or, while that bucket
// is not linked yet, its nearest linked ancestor, with the slot word it
// read. Every key of h's bucket sits after that slot in the list, so a
// reader that must not write walks from there instead of initialising
// the bucket (touchChains, txLookup). The word is loaded outside any
// transaction: a slot locked by a commit counts as not linked yet.
func (m *Map) start(sh *shard, h uint64) (uint64, uint64) {
	j := m.bidx(sh.nb.Load(), h)
	for {
		w := sh.slot(j).Touch()
		if j == 0 || !word.Locked(w) && word.Value(w) != uninit {
			return j, w
		}
		j = parent(j)
	}
}
