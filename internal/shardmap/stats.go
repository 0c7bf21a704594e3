// Operation statistics. Every Thread counts its own operations in
// per-thread atomic slots (uncontended single-writer increments, a few
// nanoseconds each), and Map.OpStats sums across threads — the hook the
// serving layer's STATS command reads while traffic is flowing, without
// racing the hot paths.
package shardmap

import "sync/atomic"

// OpStats is a snapshot of map operation counts.
type OpStats struct {
	Gets       uint64 // Get calls
	GetHits    uint64 // ... that found the key
	Puts       uint64 // Put calls
	Inserts    uint64 // ... that inserted a new key
	Updates    uint64 // Update calls
	UpdateHits uint64 // ... that found (and rewrote) the key
	Deletes    uint64 // Delete calls
	DeleteHits uint64 // ... that removed a present key
	CAS        uint64 // CompareAndSwap calls
	CASHits    uint64 // ... that swapped
	Swaps      uint64 // Swap2 calls
	SwapHits   uint64 // ... with both keys present
	Batches    uint64 // GetBatch calls
	BatchKeys  uint64 // keys read across all batches

	// The ordered index (maps built with WithOrdered).
	Scans    uint64 // Scan calls
	ScanKeys uint64 // keys emitted across all scans
	// ScanFallbacks is never incremented: a hint is exact, so Scan has no
	// fallback. tests/bench/ladder.go and the server's STATS read it.
	ScanFallbacks uint64
	IndexSearches uint64 // skip-list searches, by mutations and scans alike
	IndexSteps    uint64 // entries those searches visited (steps per search = cost at this key count)

	Conflicts uint64 // conflicted point-op attempts, each followed by a backoff
	// Escalations is never incremented; tests/bench/stacks.go and ladder.go are its only readers.
	Escalations uint64
	// SnapshotFallbacks is never incremented; tests/bench/ladder.go is its only reader.
	SnapshotFallbacks uint64
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) {
	s.Gets += o.Gets
	s.GetHits += o.GetHits
	s.Puts += o.Puts
	s.Inserts += o.Inserts
	s.Updates += o.Updates
	s.UpdateHits += o.UpdateHits
	s.Deletes += o.Deletes
	s.DeleteHits += o.DeleteHits
	s.CAS += o.CAS
	s.CASHits += o.CASHits
	s.Swaps += o.Swaps
	s.SwapHits += o.SwapHits
	s.Batches += o.Batches
	s.BatchKeys += o.BatchKeys
	s.Scans += o.Scans
	s.ScanKeys += o.ScanKeys
	s.ScanFallbacks += o.ScanFallbacks
	s.IndexSearches += o.IndexSearches
	s.IndexSteps += o.IndexSteps
	s.Conflicts += o.Conflicts
}

// Ops returns the total operation count (batches count once).
func (s OpStats) Ops() uint64 {
	return s.Gets + s.Puts + s.Updates + s.Deletes + s.CAS + s.Swaps + s.Batches +
		s.Scans
}

// opCounters is the per-thread mutable form: written only by the owning
// goroutine, read by anyone through atomic loads.
type opCounters struct {
	gets, getHits       atomic.Uint64
	puts, inserts       atomic.Uint64
	updates, updateHits atomic.Uint64
	deletes, deleteHits atomic.Uint64
	cas, casHits        atomic.Uint64
	swaps, swapHits     atomic.Uint64
	batches, batchKeys  atomic.Uint64

	scans, scanKeys       atomic.Uint64
	idxSearches, idxSteps atomic.Uint64

	conflicts atomic.Uint64
}

// reset zeroes every slot (recovery replay drives the map through the
// public operations but is not serving traffic).
func (c *opCounters) reset() {
	for _, a := range []*atomic.Uint64{
		&c.gets, &c.getHits, &c.puts, &c.inserts, &c.updates, &c.updateHits,
		&c.deletes, &c.deleteHits, &c.cas, &c.casHits, &c.swaps, &c.swapHits,
		&c.batches, &c.batchKeys,
		&c.scans, &c.scanKeys, &c.idxSearches, &c.idxSteps,
		&c.conflicts,
	} {
		a.Store(0)
	}
}

func (c *opCounters) snapshot() OpStats {
	return OpStats{
		Gets: c.gets.Load(), GetHits: c.getHits.Load(),
		Puts: c.puts.Load(), Inserts: c.inserts.Load(),
		Updates: c.updates.Load(), UpdateHits: c.updateHits.Load(),
		Deletes: c.deletes.Load(), DeleteHits: c.deleteHits.Load(),
		CAS: c.cas.Load(), CASHits: c.casHits.Load(),
		Swaps: c.swaps.Load(), SwapHits: c.swapHits.Load(),
		Batches: c.batches.Load(), BatchKeys: c.batchKeys.Load(),
		Scans:         c.scans.Load(),
		ScanKeys:      c.scanKeys.Load(),
		IndexSearches: c.idxSearches.Load(),
		IndexSteps:    c.idxSteps.Load(),
		Conflicts:     c.conflicts.Load(),
	}
}

// count bumps c and, when hit, h.
func count(c, h *atomic.Uint64, hit bool) {
	c.Add(1)
	if hit {
		h.Add(1)
	}
}

// OpStats returns this thread's own operation counts.
func (x *Thread) OpStats() OpStats { return x.ops.snapshot() }

// OpStats sums operation counts over every Thread ever attached to the
// map. The sum is a live aggregate, not an atomic snapshot.
func (m *Map) OpStats() OpStats {
	m.thrMu.Lock()
	counters := m.thrCounters
	m.thrMu.Unlock()
	var s OpStats
	for _, c := range counters {
		s.Add(c.snapshot())
	}
	return s
}

// CMStats is the two-field form of OpStats' conflict counters; tests/bench/stacks.go and ladder.go are its only readers.
type CMStats struct{ Conflicts, Escalations uint64 }

// CMStats reports the map-wide conflict count (see OpStats.Conflicts).
func (m *Map) CMStats() CMStats { return CMStats{Conflicts: m.OpStats().Conflicts} }

// registerCounters attaches a new thread's counter slots to the map.
func (m *Map) registerCounters(c *opCounters) {
	m.thrMu.Lock()
	m.thrCounters = append(m.thrCounters, c)
	m.thrMu.Unlock()
}
