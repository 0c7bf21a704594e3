// The ordered public surface: WithOrdered turns on the ordered index
// (an olist mirroring the map's key set), Scan serves range
// queries over it. Scan semantics: membership is current — every key
// that is live for the whole call appears, keys mutated mid-scan may or
// may not — and each value is read with its key's liveness link in one
// consistent read, with no point shared across keys. See DESIGN.md
// "Ordered index" for the staleness trade.
//
// # Hash-node hints
//
// Every index entry carries a transactional hint word, and every hash
// node of an ordered map the immutable handle of its key's entry
// (node.ent). The hint is exact:
//
//	hint = h  ⟺  h ≠ 0, h linked, h's key the entry's key
//	hint = 0  ⟺  the key is not live
//
// Every commit that changes which node of a key is linked writes the
// hint: an insert publishes with ShortRW2(pred link, entry.hint) (see
// putLoop), and a delete unlinks with ShortRW3(node.next, prev,
// entry.hint) (see del). Nothing else links or unlinks a node — a grow
// moves none (resize.go) — and a fresh entry's hint is empty, so every
// commit preserves the invariant, and a hint is written once per insert
// and emptied once per delete.
//
// Scan reads a candidate as one ShortRO3 over (entry.hint, node.next,
// node.val), with no hash-chain walk: an empty hint is the key not live,
// and a validated snapshot with hint = h has h linked, so node.next is
// unmarked and node.val is the key's value at that point. The node is
// safe to dereference under the epoch pin: a hint read as a committed
// value names a node linked at the read, which cannot have been retired
// before the pin began. From a live start key a scan also skips the
// index descent: one hash lookup finds the key's node, and the node's
// entry is where the walk begins.
package shardmap

import (
	"errors"

	"spectm/internal/arena"
	"spectm/internal/word"
)

// ErrNoOrdered is returned by ordered operations on a map built without
// WithOrdered.
var ErrNoOrdered = errors.New("shardmap: map has no ordered index")

// WithOrdered maintains an ordered index of the map's keys inside the
// same short transactions as the hash-map mutations, enabling Scan.
// Point operations pay one
// skip-list search per insert and delete (a delete of an entry taller
// than one level pays two; see olist.go); updates are unaffected.
func WithOrdered() Option { return func(c *config) { c.ordered = true } }

// Ordered reports whether the map maintains the ordered index.
func (m *Map) Ordered() bool { return m.ordered != nil }

// scanPage is how many candidates Scan collects from one level-0 walk
// before it reads them (see Scan).
const scanPage = 32

// scanReadHook, when a test sets it, runs inside scanRead between the
// read of a key's hint and the reads of the node it names.
var scanReadHook func(key string)

// Scan appends to keys and vals every live key k with start ≤ k < end
// (end == "" means unbounded) in ascending order, up to limit entries
// (limit ≤ 0 means unlimited), and returns the extended slices. Each
// candidate from the ordered index is verified against the hash map
// through its entry's hint, so only currently live keys are emitted.
// Each value is the key's current one, read with the key's liveness
// link in one short transaction (see scanRead) with no point shared
// across keys.
//
// The walk runs in pages. A page walks level 0 and collects up to
// scanPage entries with their hints, touches the hinted nodes so their
// cache misses overlap, and only then reads each candidate.
func (x *Thread) Scan(start, end string, limit int, keys []string, vals []Value) ([]string, []Value, error) {
	ol := x.m.ordered
	if ol == nil {
		return keys, vals, ErrNoOrdered
	}
	n0 := len(keys)
	x.t.Epoch.Enter()
	e0, e1 := prefixWords(end)
	link := x.scanStart(ol, start)
	for !link.IsNull() {
		want := scanPage
		if limit > 0 && limit-(len(keys)-n0) < want {
			want = limit - (len(keys) - n0)
		}
		np := 0
		for np < want && !link.IsNull() {
			h := dec(link)
			n := ol.a.Get(h)
			nv := x.t.SingleRead(ol.nextVar(h, n, 0))
			if nv.Marked() {
				link = nv.WithoutMark() // dead entry, already spliced; skip
				continue
			}
			if end != "" && !n.less(e0, e1, end) {
				link = word.Null
				break
			}
			x.sents[np], x.shints[np] = h, x.t.SingleRead(ol.hintVar(h, n))
			np++
			link = nv
		}
		for i := 0; i < np; i++ {
			if hint := x.shints[i]; !hint.IsNull() {
				sh := x.m.shardOf(ol.a.Get(x.sents[i]).hash)
				x.sink += sh.a.Get(dec(hint)).next.Touch()
			}
		}
		for i := 0; i < np; i++ {
			h := x.sents[i]
			n := ol.a.Get(h)
			if v, ok := x.scanRead(ol, h, n); ok {
				keys = append(keys, n.key)
				vals = append(vals, v)
			}
		}
		if limit > 0 && len(keys)-n0 >= limit {
			break
		}
	}
	x.t.Epoch.Exit()
	x.ops.scans.Add(1)
	x.ops.scanKeys.Add(uint64(len(keys) - n0))
	return keys, vals, nil
}

// scanStart returns the level-0 link a scan from start begins at. When
// start is live, that is start's own entry, found through its hash node
// (node.ent) with no index descent; otherwise it is the first entry
// ≥ start, found by a descent. The caller holds an epoch pin, and the
// entry is safe to dereference under it: the node was linked when the
// lookup read it, and an entry is removed only after its key's node is
// unlinked.
func (x *Thread) scanStart(ol *olist, start string) word.Value {
	if start != "" {
		h := x.m.hash(start)
		sh := x.m.shardOf(h)
		for {
			_, _, cur, found, ok := x.search(sh, h, start)
			if !ok {
				continue
			}
			if found {
				eh := sh.a.Get(cur).ent
				if !x.t.SingleRead(ol.nextVar(eh, ol.a.Get(eh), 0)).Marked() {
					return enc(eh)
				}
			}
			break
		}
	}
	ol.search(x, start)
	return x.isuccs[0]
}

// scanRead resolves the index entry e (handle eh) against the hash
// map: present right now, and if so its current value, read as
// ShortRO1(e.hint) → Extend(node.next) → Extend(node.val). The hint is
// exact (see the file comment), so an empty one is the key not live and
// a validated read never finds the node unlinked. The caller holds an
// epoch pin.
func (x *Thread) scanRead(ol *olist, eh arena.Handle, e *inode) (Value, bool) {
	m := x.m
	sh := m.shardOf(e.hash)
	hv := ol.hintVar(eh, e)
	for attempt := 1; ; attempt++ {
		ro, hint := x.t.ShortRO1(hv)
		if hint.IsNull() {
			if ro.Valid() {
				return 0, false
			}
			x.t.Backoff(attempt)
			continue
		}
		if scanReadHook != nil {
			scanReadHook(e.key)
		}
		h := dec(hint)
		n := sh.a.Get(h)
		ro2, nv := ro.Extend(m.nextVar(sh, h, n))
		ro3, v := ro2.Extend(m.valVar(sh, h, n))
		if !ro3.Valid() {
			x.t.Backoff(attempt)
			continue
		}
		if nv.Marked() {
			panic("shardmap: an entry's hint names an unlinked node")
		}
		return v, true
	}
}
