// Atomic multi-key reads. A batch over two distinct keys that are both
// present fits the short-transaction API exactly: two (liveness link,
// value) pairs are four locations, one ShortRO4. Anything larger — or a
// batch that must prove a key's absence, which needs the walk's links in
// the validated read set — runs as one ordinary read-only transaction,
// which composes with the short-transaction hot paths on the same
// meta-data (the paper's mixing property, §2.2/§3).
//
// When the engine maintains snapshot history (core.Config.Snapshots),
// wide batches take a third route first: membership by current-time
// chain walks, values by Thr.SnapshotRead against one timestamp. That
// path never joins a read set, so it cannot validation-abort no matter
// how hot the write load is; it degrades to the full-transaction path
// only when the bounded history no longer covers the timestamp or a
// shard resize interferes.
package shardmap

// GetBatch reads up to len(keys) keys as one atomic snapshot: vals[i] and
// found[i] report key i as of a single linearization point. vals and
// found must be at least as long as keys. Two distinct present keys run
// on the 4-location short read-only path; wider batches use snapshot
// reads when the engine records history; everything else falls back to
// one full read-only transaction.
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
	default:
		if x.m.snap && x.getBatchSnap(keys, vals, found) {
			return
		}
	}
	x.getBatchFull(keys, vals, found)
}

// getBatchSnap serves a wide batch at one snapshot timestamp S (taken
// after the epoch pin — the pin is what keeps re-used nodes' stale
// history intervals strictly below S). Present keys report their value
// as of S, so no interleaved writer — including Swap2's combined
// commit, which publishes both words at one write version — can be
// observed torn. Migrated node copies are fresh words with no history,
// so any shard resize observed before, during or after the value reads
// reports false and hands the batch to the full-transaction path.
func (x *Thread) getBatchSnap(keys []string, vals []Value, found []bool) bool {
	t := x.t
	x.ops.snapBatches.Add(1)
	if cap(x.bstates) < len(keys) {
		x.bstates = make([]*tables, len(keys))
	}
	states := x.bstates[:len(keys)]
	t.Epoch.Enter()
	defer t.Epoch.Exit()
	for attempt := 1; attempt <= 4; attempt++ {
		at := t.SnapshotBegin()
		ok := true
		for i, key := range keys {
			sh := x.m.shardOf(x.m.hash(key))
			st := sh.state.Load()
			if st.old != nil || sh.resizedAt.Load() > at {
				x.ops.snapFallbacks.Add(1)
				return false // resizing, or resized since at: copies have no history
			}
			states[i] = st
			v, f, good := x.snapLookup(key, at)
			if !good {
				ok = false
				break
			}
			vals[i], found[i] = v, f
		}
		if ok {
			// A resize that started mid-batch published a new tables
			// pointer; unchanged pointers prove no migration raced the
			// value reads.
			for i, key := range keys {
				sh := x.m.shardOf(x.m.hash(key))
				if sh.state.Load() != states[i] {
					x.ops.snapFallbacks.Add(1)
					return false
				}
			}
			return true
		}
		// History miss: restart with a fresh timestamp — every word
		// whose version is ≤ the new S satisfies the fast path, so
		// retries converge unless writers outpace the ring.
		x.ops.snapRetries.Add(1)
		t.Backoff(attempt)
	}
	x.ops.snapFallbacks.Add(1)
	return false
}

// snapLookup resolves one key of a snapshot batch: membership with a
// current-time walk (marked links retried like get), value at the batch
// timestamp. good=false means the history no longer covers at.
func (x *Thread) snapLookup(key string, at uint64) (v Value, found, good bool) {
	h := x.m.hash(key)
	sh := x.m.shardOf(h)
	for attempt := 1; attempt <= 4; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, f, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !f {
			return 0, false, true
		}
		n := sh.a.Get(cur)
		val, ok := x.t.SnapshotRead(x.m.valVar(sh, cur, n), at)
		if !ok {
			return 0, false, false
		}
		if x.t.SingleRead(x.m.nextVar(sh, cur, n)).Marked() {
			continue // unlinked under us; re-walk
		}
		return val, true, true
	}
	return 0, false, false
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
		_, _, c1, f1, ok1 := x.search(s1, x.route(s1, h1), h1, keys[0])
		if !ok1 {
			continue
		}
		_, _, c2, f2, ok2 := x.search(s2, x.route(s2, h2), h2, keys[1])
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
	for attempt := 1; ; attempt++ {
		t.TxStart()
		stale := false
		for i, key := range keys {
			v, f, ok := x.txLookup(key)
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

// txLookup resolves one key inside the open full transaction. ok=false
// means a marked (unlinked or migrated) link was crossed and the whole
// batch must restart.
func (x *Thread) txLookup(key string) (Value, bool, bool) {
	t := x.t
	h := x.m.hash(key)
	sh := x.m.shardOf(h)
	st := sh.state.Load()
	tb := st.cur
	if st.old != nil {
		head := t.TxRead(x.m.bucketVar(st.old, x.m.bidx(st.old, h)))
		if !head.Marked() {
			tb = st.old
		}
	}
	link := t.TxRead(x.m.bucketVar(tb, x.m.bidx(tb, h)))
	for {
		if link.Marked() {
			return 0, false, false
		}
		if link.IsNull() || !t.TxOK() {
			return 0, false, true
		}
		cur := dec(link)
		n := sh.a.Get(cur)
		if !keyLess(n.hash, n.key, h, key) {
			if n.hash != h || n.key != key {
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
