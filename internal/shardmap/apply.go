// The record apply path: recovery replay and replication both funnel
// decoded WAL records through Thread.Apply. Every record is an absolute
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
		if err := x.applyAssign(r.Key, r.Val); err != nil {
			return err
		}
		return x.applyAssign(r.Key2, r.Val2)
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
