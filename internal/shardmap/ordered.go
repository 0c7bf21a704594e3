// The ordered public surface: WithOrdered turns on the primary ordered
// index (an olist mirroring the map's key set), Scan serves range
// queries over it. Scan semantics: membership is current — every key
// that is live for the whole call appears, keys mutated mid-scan may or
// may not — and each value is read with its key's liveness link in one
// consistent pair read, with no point shared across keys. See DESIGN.md
// "Ordered indexes" for the staleness trade.
package shardmap

import "errors"

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

// Scan appends to keys and vals every live key k with start ≤ k < end
// (end == "" means unbounded) in ascending order, up to limit entries
// (limit ≤ 0 means unlimited), and returns the extended slices. Each
// candidate from the ordered index is verified against the hash map, so
// only currently live keys are emitted. Each value is the key's current
// one, read in its own ShortRO2 with no point shared across keys.
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
		if v, ok := x.lookupLive(n.key, n.hash); ok {
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

// lookupLive resolves key (whose map hash is h) against the hash map:
// present right now, and if so its current committed value, read with
// the node's liveness link in one ShortRO2. The caller holds an epoch
// pin.
func (x *Thread) lookupLive(key string, h uint64) (Value, bool) {
	m := x.m
	sh := m.shardOf(h)
	for attempt := 1; ; attempt++ {
		tb := x.route(sh, h)
		_, _, cur, found, ok := x.search(sh, tb, h, key)
		if !ok {
			continue
		}
		if !found {
			return 0, false
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
		return vv, true
	}
}
