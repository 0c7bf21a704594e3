// The record apply path: recovery replay and replication both funnel
// decoded WAL records through Thread.Apply (replication a batch at a
// time, through Thread.ApplyEach). Every record is an absolute
// assignment ("key now holds val" or "key is gone"), so applying is
// idempotent — re-delivering a suffix after a resumed replication
// stream or a fuzzy-snapshot bootstrap converges to the same state.
//
// The path is zero-retention: record keys alias transport or decode
// buffers, so updates and deletes pass a borrowed string view and only
// a real insert clones the key out.
package shardmap

import (
	"fmt"
	"unsafe"

	"spectm/internal/wal"
	"spectm/internal/word"
)

// borrow views b as a string without copying. The view aliases b and
// must not be retained; Apply only hands it to non-retaining paths.
func borrow(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Apply applies one decoded WAL record to the map. Values round-trip as
// raw words, so a record whose value has the reserved low bits set can
// only be corruption the CRC missed — it is refused rather than
// poisoning the engine.
func (x *Thread) Apply(r wal.Record) error {
	switch r.Op {
	case wal.OpDelete:
		x.Delete(borrow(r.Key))
		return nil
	case wal.OpSwap2:
		return x.applySwap2(r)
	case wal.OpPut, wal.OpCAS:
		return x.applyAssign(r.Key, r.Val)
	case wal.OpEpoch:
		// Fencing metadata, not a mutation. Streams that care about the
		// epoch (the replica) intercept it before Apply; reaching here is
		// a harmless no-op.
		return nil
	case wal.OpIdxCreate:
		// CreateIndex is idempotent, so a definition delivered by both a
		// fuzzy snapshot and the log tail (or a resumed stream) converges.
		// The strings must be cloned: record keys alias decode buffers,
		// and index definitions are retained.
		return x.CreateIndex(string(r.Key), string(r.Key2))
	default:
		return fmt.Errorf("%w: unknown record op %d", wal.ErrCorrupt, r.Op)
	}
}

// ApplyEach applies recs in order, each exactly as Apply would, and
// stops at the first error, which it returns: the records before it
// stay applied. Before it applies a window of applyWindow records it
// walks the chains of all their keys together (touchChains), so the
// window's cache misses are taken overlapped instead of one record after
// another, and its lines are still cached when its records apply. The
// records' keys must stay valid until ApplyEach returns.
func (x *Thread) ApplyEach(recs []wal.Record) error {
	for len(recs) > 0 {
		w := recs[:min(len(recs), applyWindow)]
		recs = recs[len(w):]
		x.touchRecords(w)
		for i := range w {
			if err := x.Apply(w[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyWindow is how many records ApplyEach touches at a time.
const applyWindow = 64

// touchRecords walks the chains of every key of recs (touchChains).
func (x *Thread) touchRecords(recs []wal.Record) {
	x.bhash = x.bhash[:0]
	for i := range recs {
		r := &recs[i]
		switch r.Op {
		case wal.OpSwap2:
			x.bhash = append(x.bhash, x.m.hash(borrow(r.Key2)))
			fallthrough
		case wal.OpPut, wal.OpCAS, wal.OpDelete:
			x.bhash = append(x.bhash, x.m.hash(borrow(r.Key)))
		}
	}
	if len(x.bhash) > 1 {
		x.t.Epoch.Enter()
		x.touchChains()
		x.t.Epoch.Exit()
	}
}

// applySwap2 applies a SWAP2 record — both keys' new values — as one
// ShortRO2RW2 commit, logged as one OpSwap2 record, so a concurrent
// reader never sees half of it. The keys were both present when the
// swap ran; if one is absent here (a replica whose snapshot bootstrap
// raced the swap, or a replay over a fuzzy snapshot) the record falls
// back to two assignments.
func (x *Thread) applySwap2(r wal.Record) error {
	if r.Val&3 != 0 || r.Val2&3 != 0 {
		return fmt.Errorf("%w: swap values %#x, %#x have reserved bits set", wal.ErrCorrupt, r.Val, r.Val2)
	}
	k1, k2 := borrow(r.Key), borrow(r.Key2)
	v1, v2 := word.Value(r.Val), word.Value(r.Val2)
	if k1 != k2 {
		x.t.Epoch.Enter()
		old1, old2, ok := x.set2(x.m.hash(k1), x.m.hash(k2), k1, k2, false, v1, v2)
		x.t.Epoch.Exit()
		if ok {
			x.logSwap2(k1, v1, k2, v2)
			x.secUpdate(k1, old1, true, v1, true)
			x.secUpdate(k2, old2, true, v2, true)
			count(&x.ops.swaps, &x.ops.swapHits, true)
			return nil
		}
	}
	if err := x.applyAssign(r.Key, r.Val); err != nil {
		return err
	}
	return x.applyAssign(r.Key2, r.Val2)
}

// applyAssign sets key ← val, updating in place when the key exists
// (no retention) and cloning the key only for a fresh insert.
func (x *Thread) applyAssign(key []byte, val uint64) error {
	if val&3 != 0 {
		return fmt.Errorf("%w: value %#x has reserved bits set", wal.ErrCorrupt, val)
	}
	v := word.Value(val)
	if !x.Update(borrow(key), v) {
		x.Put(string(key), v)
	}
	return nil
}
