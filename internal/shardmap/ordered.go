// The ordered public surface: WithOrdered turns on the primary ordered
// index (an olist mirroring the map's key set), Scan serves range
// queries over it. Scan semantics: membership is current — every key
// that is live for the whole call appears, keys mutated mid-scan may or
// may not — and each value is read with its key's liveness link in one
// consistent read, with no point shared across keys. See DESIGN.md
// "Ordered indexes" for the staleness trade.
//
// # Hash-node hints
//
// Every primary entry carries a transactional hint word naming the
// key's hash node and the sequence number of the shard table that node
// was found in. Scan reads a candidate through it as one ShortRO3 over
// (entry.hint, node.next, node.val), with no hash-chain walk, and falls
// back to lookupLive when the hint is empty or stale. The invariant:
//
//	hint = (h, s), s the shard's current table, no resize in flight
//	  ⟹  h is linked
//
// Three rules keep it. Delete writes the hint empty in the commit that
// unlinks the node (see del). A grow starts a table with the next
// sequence number, and migration unlinks nodes only during a grow. Only
// Scan writes hints, after a fallback lookup: ShortRO1(node.next) +
// LockRead(entry.hint) → ShortRO1RW1, whose commit validates the node
// still linked. A refresh that loses is dropped, not retried. Put writes
// no hint, so inserts pay nothing.
//
// Safety comes from the epoch pin, not from arena generations. Scan
// checks the shard state after reading the hint; a hint read as a
// committed value under the pin, and passing that check, names a node
// that was linked at the read, so it cannot have been retired before
// the pin began and its slot is not recycled before the pin ends. (An
// entry that is removed can still take a refresh from a scan that was
// already on it, naming a node of a later incarnation of the key; that
// node was linked after the entry was marked, and every scan that can
// still reach the entry pinned before that.) The three reads then
// validate together: an unmarked link read with the hint is the key
// live with that value.
package shardmap

import (
	"errors"

	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// ErrNoOrdered is returned by ordered operations on a map built without
// WithOrdered.
var ErrNoOrdered = errors.New("shardmap: map has no ordered index")

// WithOrdered maintains an ordered index of the map's keys inside the
// same short transactions as the hash-map mutations, enabling Scan and
// secondary indexes (CreateIndex / IndexScan). Point operations pay one
// skip-list search per insert and delete (a delete of an entry taller
// than one level pays two; see olist.go); updates are unaffected.
func WithOrdered() Option { return func(c *config) { c.ordered = true } }

// Ordered reports whether the map maintains the ordered index.
func (m *Map) Ordered() bool { return m.ordered != nil }

// hintSeqBits is the width of a hint's table sequence number, below the
// 48-bit arena handle. A shard's table doubles per grow, so its
// sequence number never comes near 2^14.
const hintSeqBits = 14

func encHint(h arena.Handle, seq uint64) word.Value {
	return word.FromUint(uint64(h)<<hintSeqBits | seq)
}

func decHint(v word.Value) (arena.Handle, uint64) {
	u := v.Uint()
	return arena.Handle(u >> hintSeqBits), u & (1<<hintSeqBits - 1)
}

// scanRefreshHook, when a test sets it, runs inside a hint refresh,
// between the read of the node's link and the lock of the hint.
var scanRefreshHook func()

// Scan appends to keys and vals every live key k with start ≤ k < end
// (end == "" means unbounded) in ascending order, up to limit entries
// (limit ≤ 0 means unlimited), and returns the extended slices. Each
// candidate from the ordered index is verified against the hash map, so
// only currently live keys are emitted. Each value is the key's current
// one, read with the key's liveness link in one short transaction (see
// scanRead) with no point shared across keys.
func (x *Thread) Scan(start, end string, limit int, keys []string, vals []Value) ([]string, []Value, error) {
	ol := x.m.ordered
	if ol == nil {
		return keys, vals, ErrNoOrdered
	}
	n0 := len(keys)
	x.t.Epoch.Enter()
	ol.search(x, start)
	e0, e1 := prefixWords(end)
	link := x.isuccs[0]
	for !link.IsNull() {
		h := dec(link)
		n := ol.a.Get(h)
		nv := x.t.SingleRead(ol.nextVar(h, n, 0))
		if nv.Marked() {
			link = nv.WithoutMark() // dead entry, already spliced; skip
			continue
		}
		if end != "" && !n.less(e0, e1, end) {
			break
		}
		if v, ok := x.scanRead(ol, h, n); ok {
			keys = append(keys, n.key)
			vals = append(vals, v)
			if limit > 0 && len(keys)-n0 >= limit {
				break
			}
		}
		link = nv
	}
	x.t.Epoch.Exit()
	x.ops.scans.Add(1)
	x.ops.scanKeys.Add(uint64(len(keys) - n0))
	return keys, vals, nil
}

// scanRead resolves the primary entry e (handle eh) against the hash
// map: present right now, and if so its current value. A usable hint
// reads both in ShortRO1(e.hint) → Extend(node.next) → Extend(node.val);
// an empty or stale one, or a node a grow has since migrated, falls
// back to lookupLive and one hint refresh. The caller holds an epoch
// pin.
func (x *Thread) scanRead(ol *olist, eh arena.Handle, e *inode) (Value, bool) {
	m := x.m
	sh := m.shardOf(e.hash)
	hv := ol.hintVar(eh, e)
	for attempt := 1; ; attempt++ {
		ro, hint := x.t.ShortRO1(hv)
		h, seq := decHint(hint)
		if st := sh.state.Load(); h.IsNil() || st.old != nil || st.cur.seq != seq {
			ro.Discard()
			break
		}
		n := sh.a.Get(h)
		ro2, nv := ro.Extend(m.nextVar(sh, h, n))
		ro3, v := ro2.Extend(m.valVar(sh, h, n))
		if !ro3.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if nv.Marked() {
			break // migrated by a grow that began after the state check
		}
		return v, true
	}
	x.ops.scanFallbacks.Add(1)
	v, h, seq, ok := x.lookupLive(e.key, e.hash)
	if ok {
		x.refreshHint(hv, sh, h, seq)
	}
	return v, ok
}

// refreshHint points the hint hv at node h, which lookupLive just found
// live in sh's table seq: ShortRO1(node.next) + LockRead(hint) →
// ShortRO1RW1, so the commit fails if the node was unlinked since. A
// lost refresh is dropped; the next scan of the entry falls back again.
func (x *Thread) refreshHint(hv core.Var, sh *shard, h arena.Handle, seq uint64) {
	n := sh.a.Get(h)
	ro, nv := x.t.ShortRO1(x.m.nextVar(sh, h, n))
	if nv.Marked() {
		ro.Discard()
		return
	}
	if scanRefreshHook != nil {
		scanRefreshHook()
	}
	c, _ := ro.LockRead(hv)
	c.Commit(encHint(h, seq))
}

// lookupLive resolves key (whose map hash is h) against the hash map:
// present right now, and if so its current committed value, read with
// the node's liveness link in one ShortRO2, plus the node's handle and
// the sequence number of the table it was found in. The caller holds an
// epoch pin.
func (x *Thread) lookupLive(key string, h uint64) (Value, arena.Handle, uint64, bool) {
	m := x.m
	sh := m.shardOf(h)
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return 0, 0, 0, false
		}
		n := sh.a.Get(cur)
		d, nv, vv := x.t.ShortRO2(m.nextVar(sh, cur, n), m.valVar(sh, cur, n))
		if !d.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if nv.Marked() {
			continue
		}
		return vv, cur, tb.seq, true
	}
}
