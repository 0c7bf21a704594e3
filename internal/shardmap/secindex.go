// Secondary indexes. CreateIndex(name, kind) registers a named
// extractor that derives an index key from each (primary key, value)
// pair and maintains an olist of composite entries
//
//	index-key ++ "\x00" ++ primary-key        (split = len(index-key))
//
// so IndexScan ranges over index keys and, within one index key, over
// primary keys. Extractor kinds are plain strings — WAL-serializable,
// so index definitions replay and replicate as OpIdxCreate records:
//
//	"value"      16-digit zero-padded lowercase hex of the value payload
//	"key"        the primary key itself (an ordered alias)
//	"prefix:N"   the primary key's first N bytes
//
// Maintenance runs from the mutating operations' post-commit paths:
// entries for a new value are added and entries for the replaced value
// dropped after the map commit, so an IndexScan concurrent with an
// update may briefly miss the freshly written value (never see a torn
// one — candidates are verified by re-extracting from the live primary
// value, which also hides the bounded entry leaks concurrent updates
// can strand; see DESIGN.md "Ordered indexes"). The hot path pays one
// atomic pointer load when no index exists.
package shardmap

import (
	"fmt"
	"strconv"
	"strings"
)

// secKind enumerates parsed extractor kinds.
const (
	secValue = iota
	secKey
	secPrefix
)

// secIndex is one registered secondary index.
type secIndex struct {
	name string
	kind string // the wire/WAL form, for snapshots and idempotence
	mode int
	plen int // prefix:N length
	ol   *olist
}

// indexSet is the immutable published set of indexes (copy-on-write
// under Map.idxMu; hot paths read the pointer once).
type indexSet struct {
	list   []*secIndex
	byName map[string]*secIndex
}

// parseKind validates an extractor kind string.
func parseKind(kind string) (mode, plen int, err error) {
	switch {
	case kind == "value":
		return secValue, 0, nil
	case kind == "key":
		return secKey, 0, nil
	case strings.HasPrefix(kind, "prefix:"):
		n, err := strconv.Atoi(kind[len("prefix:"):])
		if err != nil || n <= 0 {
			return 0, 0, fmt.Errorf("shardmap: bad prefix length in index kind %q", kind)
		}
		return secPrefix, n, nil
	default:
		return 0, 0, fmt.Errorf("shardmap: unknown index kind %q (want value, key or prefix:N)", kind)
	}
}

// seckey derives the index key for one (primary key, value) pair.
func (ix *secIndex) seckey(key string, val Value) string {
	switch ix.mode {
	case secKey:
		return key
	case secPrefix:
		if len(key) <= ix.plen {
			return key
		}
		return key[:ix.plen]
	default:
		const hexdig = "0123456789abcdef"
		var b [16]byte
		u := val.Uint()
		for i := 15; i >= 0; i-- {
			b[i] = hexdig[u&0xf]
			u >>= 4
		}
		return string(b[:])
	}
}

// entry builds the composite olist key and its split point.
func (ix *secIndex) entry(key string, val Value) (string, int) {
	sk := ix.seckey(key, val)
	return sk + "\x00" + key, len(sk)
}

// CreateIndex registers a secondary index over the map and backfills it
// from the current contents. It is idempotent: re-creating an existing
// name with the same kind is a no-op (replay and replication re-deliver
// definitions), with a different kind an error. On a persistent map the
// definition is logged and flushed before the backfill, so an
// acknowledged CreateIndex survives a crash. Concurrent mutations
// during the backfill are indexed by their own maintenance; the overlap
// can strand spare entry references, which verification hides.
func (x *Thread) CreateIndex(name, kind string) error {
	m := x.m
	if m.ordered == nil {
		return ErrNoOrdered
	}
	if name == "" {
		return fmt.Errorf("shardmap: empty index name")
	}
	mode, plen, err := parseKind(kind)
	if err != nil {
		return err
	}
	m.idxMu.Lock()
	if cur := m.indexes.Load(); cur != nil {
		if old := cur.byName[name]; old != nil {
			m.idxMu.Unlock()
			if old.kind == kind {
				return nil
			}
			return fmt.Errorf("shardmap: index %q already exists with kind %q", name, old.kind)
		}
	}
	ix := &secIndex{name: name, kind: kind, mode: mode, plen: plen, ol: newOlist(m, &m.olSeq)}
	next := &indexSet{byName: map[string]*secIndex{name: ix}}
	if cur := m.indexes.Load(); cur != nil {
		next.list = append(next.list, cur.list...)
		for n, i := range cur.byName {
			next.byName[n] = i
		}
	}
	next.list = append(next.list, ix)
	m.indexes.Store(next)
	m.idxMu.Unlock()
	if w := m.wal; w != nil {
		w.IdxCreate(name, kind)
		w.Flush()
	}
	// Backfill after publication: mutations from here on maintain the
	// index themselves, Range covers everything already present (the
	// callback runs inside Range's epoch pin, which add requires).
	x.Range(func(k string, v Value) bool {
		ek, split := ix.entry(k, v)
		ix.ol.add(x, ek, 0, split)
		return true
	})
	x.ops.idxCreates.Add(1)
	return nil
}

// Indexes returns the (name, kind) pairs of the registered secondary
// indexes, in creation order.
func (m *Map) Indexes() [][2]string {
	is := m.indexes.Load()
	if is == nil {
		return nil
	}
	out := make([][2]string, len(is.list))
	for i, ix := range is.list {
		out[i] = [2]string{ix.name, ix.kind}
	}
	return out
}

// IndexScan appends to keys and vals every live primary key whose index
// key ik under the named index satisfies start ≤ ik < end (end == ""
// unbounded), ordered by (index key, primary key), up to limit entries.
// Each candidate is verified against the hash map and its index key
// re-extracted from the live value, so results always point at live
// primary keys whose value, read in one ShortRO2, still matches the
// entry.
func (x *Thread) IndexScan(name, start, end string, limit int, keys []string, vals []Value) ([]string, []Value, error) {
	if x.m.ordered == nil {
		return keys, vals, ErrNoOrdered
	}
	is := x.m.indexes.Load()
	var ix *secIndex
	if is != nil {
		ix = is.byName[name]
	}
	if ix == nil {
		return keys, vals, fmt.Errorf("shardmap: unknown index %q", name)
	}
	n0 := len(keys)
	x.t.Epoch.Enter()
	ix.ol.search(x, start)
	link := x.isuccs[0]
	for !link.IsNull() {
		h := dec(link)
		n := ix.ol.a.Get(h)
		nv := x.t.SingleRead(ix.ol.nextVar(h, n, 0))
		if nv.Marked() {
			link = nv.WithoutMark()
			continue
		}
		sk := n.key[:n.split]
		if end != "" && sk >= end {
			break
		}
		pk := n.key[n.split+1:]
		if v, _, _, ok := x.lookupLive(pk, x.m.hash(pk)); ok && ix.seckey(pk, v) == sk {
			keys = append(keys, pk)
			vals = append(vals, v)
			if limit > 0 && len(keys)-n0 >= limit {
				break
			}
		}
		link = nv
	}
	x.t.Epoch.Exit()
	x.ops.iscans.Add(1)
	x.ops.iscanKeys.Add(uint64(len(keys) - n0))
	return keys, vals, nil
}

// secUpdate maintains every secondary index across one committed value
// transition on key: (hasOld, hasNew) distinguish insert (false, true),
// update (true, true) and delete (true, false). Composite entry keys
// allocate, which is why the point-op hot paths only call this behind
// an indexes-pointer nil check.
//
//spectm:coldpath
func (x *Thread) secUpdate(key string, old Value, hasOld bool, new Value, hasNew bool) {
	is := x.m.indexes.Load()
	if is == nil {
		return
	}
	x.t.Epoch.Enter()
	for _, ix := range is.list {
		var oe, ne string
		var nsplit int
		if hasOld {
			oe, _ = ix.entry(key, old)
		}
		if hasNew {
			ne, nsplit = ix.entry(key, new)
		}
		if hasOld && hasNew && oe == ne {
			continue
		}
		if hasNew {
			ix.ol.add(x, ne, 0, nsplit)
		}
		if hasOld {
			ix.ol.drop(x, oe)
		}
	}
	x.t.Epoch.Exit()
}
