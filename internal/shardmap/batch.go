// Atomic multi-key reads. A batch over two distinct keys that are both
// present fits the short-transaction API exactly: two (liveness link,
// value) pairs are four locations, one ShortRO4. Anything larger — or a
// batch that must prove a key's absence, which needs the walk's links in
// the validated read set — runs as one ordinary read-only transaction,
// which composes with the short-transaction hot paths on the same
// meta-data (the paper's mixing property, §2.2/§3). Before a batch wider
// than two keys starts its transaction it walks every key's chain in
// rounds (touchChains), so those independent cache misses overlap
// instead of being taken one key at a time.
package shardmap

import (
	"math/bits"

	"spectm/internal/word"
)

// GetBatch reads up to len(keys) keys as one atomic snapshot: vals[i] and
// found[i] report key i as of a single linearization point. vals and
// found must be at least as long as keys. Two distinct present keys run
// on the 4-location short read-only path; a wider batch, or one with an
// absent key, runs as one full read-only transaction.
func (x *Thread) GetBatch(keys []string, vals []Value, found []bool) {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("shardmap: GetBatch needs vals/found at least as long as keys")
	}
	x.ops.batches.Add(1)
	x.ops.batchKeys.Add(uint64(len(keys)))
	switch len(keys) {
	case 0:
		return
	case 1:
		vals[0], found[0] = x.get(keys[0])
		return
	case 2:
		if keys[0] != keys[1] && x.getPair(keys, vals, found) {
			return
		}
	}
	x.getBatchFull(keys, vals, found)
}

// getPair attempts the ShortRO4 fast path for two distinct keys. It
// reports false when either key is currently absent (or keeps vanishing),
// handing the batch to the full-transaction path.
func (x *Thread) getPair(keys []string, vals []Value, found []bool) bool {
	h1, h2 := x.m.hash(keys[0]), x.m.hash(keys[1])
	s1, s2 := x.m.shardOf(h1), x.m.shardOf(h2)
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; attempt <= 8; attempt++ {
		_, _, c1, f1, ok1 := x.search(s1, h1, keys[0])
		if !ok1 {
			continue
		}
		_, _, c2, f2, ok2 := x.search(s2, h2, keys[1])
		if !ok2 {
			continue
		}
		if !f1 || !f2 {
			return false // absence proofs need the full-transaction path
		}
		n1, n2 := s1.a.Get(c1), s2.a.Get(c2)
		d, nv1, vv1, nv2, vv2 := x.t.ShortRO4(
			x.m.nextVar(s1, c1, n1), x.m.valVar(s1, c1, n1),
			x.m.nextVar(s2, c2, n2), x.m.valVar(s2, c2, n2))
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if nv1.Marked() || nv2.Marked() {
			continue
		}
		vals[0], vals[1] = vv1, vv2
		found[0], found[1] = true, true
		return true
	}
	return false
}

// getBatchFull snapshots the batch with one ordinary transaction. The
// whole walk of every key — including the links proving an absent key
// absent — lands in the validated read set, so commit success means all
// answers held simultaneously.
func (x *Thread) getBatchFull(keys []string, vals []Value, found []bool) {
	t := x.t
	t.Epoch.Enter()
	defer t.Epoch.Exit()
	x.hashKeys(keys)
	if len(keys) > 2 {
		x.touchChains()
	}
	for attempt := 1; ; attempt++ {
		t.TxStart()
		stale := false
		for i, key := range keys {
			v, f, ok := x.txLookup(key, x.bhash[i])
			if !ok {
				stale = true
				break
			}
			vals[i], found[i] = v, f
		}
		if !stale && t.TxCommit() {
			return
		}
		if stale {
			t.TxAbort()
		}
		t.Backoff(attempt)
	}
}

// Touch walks the chains of keys together (touchChains), under its own
// epoch pin, so that the operations the caller runs next on those keys —
// in any order, through any path — find the nodes they stop at already
// cached: the keys' cache misses are taken overlapped, in one pass,
// instead of one operation after another. It reads nothing on the
// caller's behalf, so it never changes what an operation returns. With
// fewer than two keys there is nothing to overlap, and it does nothing.
//
//spectm:noalloc
func (x *Thread) Touch(keys []string) {
	if len(keys) < 2 {
		return
	}
	x.t.Epoch.Enter()
	x.hashKeys(keys)
	x.touchChains()
	x.t.Epoch.Exit()
}

// hashKeys hashes every key once into x.bhash.
func (x *Thread) hashKeys(keys []string) {
	x.bhash = x.bhash[:0]
	for _, key := range keys {
		x.bhash = append(x.bhash, x.m.hash(key))
	}
}

// touchChains walks, for every hash h in x.bhash, h's bucket run in its
// shard's list up to the first entry not ordered before h's key: the
// node a lookup of the key stops at. A walk starts at h's bucket slot,
// or at its nearest linked ancestor's while the bucket is not linked yet
// (start), so it never writes. The walks advance together, one entry
// each per round — first every slot, then every walk's next entry — so
// the loads within a round do not wait for each other and the chains'
// cache misses overlap. They are only touches: the lookups re-read
// everything they use, so a walk that stops early (a link locked or
// marked under a commit) costs only its loads. A walk ends, because
// every link names an entry ordered after the one holding it. The
// caller holds an epoch pin, which keeps every node a walk reaches
// allocated.
func (x *Thread) touchChains() {
	x.bhead = x.bhead[:0]
	for _, h := range x.bhash {
		_, w := x.m.start(x.m.shardOf(h), h)
		x.bhead = append(x.bhead, w)
	}
	for more := true; more; {
		more = false
		for i, w := range x.bhead {
			v := word.Value(w)
			if word.Locked(w) || v.Marked() || v.IsNull() {
				continue
			}
			h := x.bhash[i]
			sh, so := x.m.shardOf(h), x.m.sokey(h)
			if isRef(v) {
				j := refIdx(v)
				if bits.Reverse64(j) > so {
					x.bhead[i] = uint64(word.Null)
					continue
				}
				x.bhead[i] = sh.slot(j).Touch()
			} else {
				n := sh.a.Get(dec(v))
				if n.hash >= so {
					x.bhead[i] = uint64(word.Null)
					continue
				}
				x.bhead[i] = n.next.Touch()
			}
			more = true
		}
	}
}

// txLookup resolves one key (whose map hash is h) inside the open full
// transaction, walking from h's bucket slot or its nearest linked
// ancestor's (start), so the transaction stays read-only. ok=false means
// a marked (unlinked) link was crossed and the whole batch must restart.
func (x *Thread) txLookup(key string, h uint64) (Value, bool, bool) {
	t := x.t
	sh := x.m.shardOf(h)
	so := x.m.sokey(h)
	p0, p1 := prefixWords(key)
	j, _ := x.m.start(sh, h)
	link := t.TxRead(x.m.slotVar(sh, j))
	for {
		switch {
		case link.Marked():
			return 0, false, false
		case link.IsNull() || !t.TxOK():
			return 0, false, true
		case isRef(link):
			j := refIdx(link)
			if bits.Reverse64(j) > so {
				return 0, false, true
			}
			link = t.TxRead(x.m.slotVar(sh, j))
			continue
		}
		cur := dec(link)
		n := sh.a.Get(cur)
		if c := n.cmp(so, p0, p1, key); c >= 0 {
			if c > 0 {
				return 0, false, true
			}
			if t.TxRead(x.m.nextVar(sh, cur, n)).Marked() {
				return 0, false, false
			}
			return t.TxRead(x.m.valVar(sh, cur, n)), true, true
		}
		link = t.TxRead(x.m.nextVar(sh, cur, n))
	}
}
