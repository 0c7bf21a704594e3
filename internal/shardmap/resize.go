// Per-shard incremental resize. Growth doubles one shard's bucket table
// and migrates chains bucket-by-bucket, each bucket in one ordinary
// transaction — the only place the map falls back to full transactions,
// because a chain's length is not statically bounded. Concurrent short
// operations keep running: until a bucket's migration commits they work
// on the old table, afterwards the marked links and the sentinel head
// push them to the new one (see the package comment's routing protocol).
package shardmap

import "spectm/internal/word"

// maybeGrow triggers a resize of sh when its load factor exceeds maxLoad.
// Callers invoke it outside any epoch critical section. Only one resizer
// runs per shard; everyone else returns immediately.
func (x *Thread) maybeGrow(sh *shard) {
	st := sh.state.Load()
	if st.old != nil || sh.size.Load() <= uint64(len(st.cur.buckets))*maxLoad {
		return
	}
	if !sh.mu.TryLock() {
		return
	}
	defer sh.mu.Unlock()
	st = sh.state.Load()
	if st.old != nil || sh.size.Load() <= uint64(len(st.cur.buckets))*maxLoad {
		return
	}
	x.grow(sh, st.cur)
}

// grow doubles sh's table and migrates every bucket. The caller holds
// sh.mu. The work (and its allocation) is amortized across the inserts
// that raised the load factor.
//
//spectm:coldpath
func (x *Thread) grow(sh *shard, old *table) {
	nt := x.m.newTable(2 * len(old.buckets))
	sh.state.Store(&tables{cur: nt, old: old})
	for b := range old.buckets {
		x.migrateBucket(sh, old, nt, uint64(b))
	}
	sh.state.Store(&tables{cur: nt})
}

// migrateBucket moves old bucket b's chain into the new table as one
// full transaction: it snapshots the chain, builds fresh copies of every
// node split across the two target buckets, publishes the copies, marks
// every old link and installs the marked-null sentinel as the old head.
// With the ordered index on, the same commit points each key's hint at
// its copy, so a hint never names a migrated node. Operations that raced
// the commit fail their CAS or validation against the marked links and
// re-route.
//
// No operation reads or writes new bucket b or b+len(old.buckets) before
// old bucket b's sentinel is committed (route), so until then both
// hold the null newTable gave them. The commit therefore writes only
// the new heads that get a chain, and an empty bucket (about a third
// of them at maxLoad 1) migrates with one CAS of its head from null to
// the sentinel instead of a transaction.
func (x *Thread) migrateBucket(sh *shard, old, nt *table, b uint64) {
	t := x.t
	oldHead := x.m.bucketVar(old, b)
	if t.SingleCAS(oldHead, word.Null, word.Null.WithMark()) == word.Null {
		return // an empty bucket: its two new heads are already null
	}
	t.Epoch.Enter()
	defer t.Epoch.Exit()
	ol := x.m.ordered
	for attempt := 1; ; attempt++ {
		// Drop copies built by a failed previous attempt.
		for _, h := range x.mcopy {
			sh.a.Free(h)
		}
		x.mcopy = x.mcopy[:0]
		x.mchain = x.mchain[:0]
		x.mnext = x.mnext[:0]
		x.mvals = x.mvals[:0]

		t.TxStart()
		stale := false
		link := t.TxRead(oldHead)
		for !link.IsNull() && t.TxOK() {
			if link.Marked() {
				// A walker can only find a marked link through a stale
				// read; the commit would fail anyway.
				stale = true
				break
			}
			h := dec(link)
			n := sh.a.Get(h)
			x.mchain = append(x.mchain, h)
			x.mvals = append(x.mvals, t.TxRead(x.m.valVar(sh, h, n)))
			link = t.TxRead(x.m.nextVar(sh, h, n))
			x.mnext = append(x.mnext, link)
		}
		if stale || !t.TxOK() {
			t.TxAbort()
			t.Backoff(attempt)
			continue
		}

		if ol != nil {
			// The commit locks and writes every entry's hint, one after
			// another. Touch them first, in a loop whose loads do not
			// wait for each other, so their misses overlap.
			for _, h := range x.mchain {
				x.sink += ol.a.Get(sh.a.Get(h).ent).hint.Touch()
			}
		}

		// Build the two split chains back-to-front; the old chain is
		// sorted by (hash, key) and splitting preserves order.
		var heads [2]word.Value
		for i := len(x.mchain) - 1; i >= 0; i-- {
			on := sh.a.Get(x.mchain[i])
			idx := 0
			if x.m.bidx(nt, on.hash) != b {
				idx = 1
			}
			nh, nn := sh.a.Alloc()
			nn.hash, nn.key, nn.p0, nn.p1, nn.ent = on.hash, on.key, on.p0, on.p1, on.ent
			nn.val.Init(x.mvals[i])
			nn.next.Init(heads[idx])
			heads[idx] = enc(nh)
			x.mcopy = append(x.mcopy, nh)
			if ol != nil {
				t.TxWrite(ol.hintVar(on.ent, ol.a.Get(on.ent)), enc(nh))
			}
		}
		for i, hd := range heads {
			if !hd.IsNull() {
				t.TxWrite(x.m.bucketVar(nt, b+uint64(i*len(old.buckets))), hd)
			}
		}
		for i, h := range x.mchain {
			n := sh.a.Get(h)
			t.TxWrite(x.m.nextVar(sh, h, n), x.mnext[i].WithMark())
		}
		t.TxWrite(oldHead, word.Null.WithMark())
		if t.TxCommit() {
			for _, h := range x.mchain {
				t.Epoch.Retire(sh.a, uint64(h))
			}
			x.mcopy = x.mcopy[:0]
			return
		}
		t.Backoff(attempt)
	}
}
