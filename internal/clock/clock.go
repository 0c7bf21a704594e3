// Package clock provides the two version-management strategies of the
// paper's §4.1:
//
//   - Global: a single shared 64-bit version number incremented by every
//     non-read-only commit (TL2 style; sampled at transaction start, used
//     with timebase extension).
//   - PerThread: one padded counter per thread, bumped on each commit by
//     its owner. Logically incrementing the "shared counter" is a cheap
//     local add; reading it means summing one slot per registered
//     thread (paper §2.4).
//
// We follow the paper's 64-bit assumption and ignore overflow (§4.1).
package clock

import (
	"runtime"
	"sync/atomic"

	"spectm/internal/pad"
)

// Global is the shared TL2-style clock.
type Global struct {
	c pad.U64
}

// Read samples the clock.
func (g *Global) Read() uint64 { return g.c.Load() }

// Tick increments the clock and returns the new value, the commit
// timestamp of the caller.
func (g *Global) Tick() uint64 { return g.c.Add(1) }

// PerThread is the distributed alternative: per-thread commit counters
// operated as a distributed sequence lock. A writer bumps its own slot to
// odd immediately before its store phase and back to even immediately
// after, so an odd slot means "stores in flight". Readers sample the
// logical clock with StableSum, which refuses to return while any writer
// is mid-phase. Two equal StableSums with a successful value validation
// in between certify a consistent snapshot (Dalessandro et al., as cited
// in §2.4 of the paper).
//
// The clock covers only the published prefix of slots: Register hands
// out slot n and publishes n+1 in one atomic step, and StableSum loads
// that count once per pass and walks [0, n). Reading costs O(registered
// threads); the capacity passed to NewPerThread costs memory only.
// Covering a slot nobody owns yet is harmless (it reads 0 and even).
// Missing one is the only hazard, and it cannot hide a writer:
//
//   - A pass whose count load precedes slot k's publication leaves k out,
//     which equals reading it at that instant: k's owner bumps only after
//     Register returned, so the slot still held 0.
//   - A writer whose store phase overlaps a reader's validation window
//     went odd before the window's closing pass began. It registered
//     before that, and sync/atomic operations are sequentially
//     consistent, so the closing pass loads a count that covers its slot
//     and sees it odd (and waits) or advanced by at least 2. Slots are
//     monotone, so the closing sum exceeds the opening one whether or not
//     the opening pass covered the slot.
type PerThread struct {
	slots []pad.U64
	n     atomic.Int32 // published prefix: slots [0, n) have owners
}

// NewPerThread returns counters with room for max registered threads.
func NewPerThread(max int) *PerThread { return &PerThread{slots: make([]pad.U64, max)} }

// Register allocates the next slot and publishes it to StableSum before
// returning, hence before its owner's first Bump. ok is false once every
// slot is taken.
func (p *PerThread) Register() (tid int, ok bool) {
	for {
		n := p.n.Load()
		if int(n) >= len(p.slots) {
			return 0, false
		}
		if p.n.CompareAndSwap(n, n+1) {
			return int(n), true
		}
	}
}

// Registered returns the published prefix: how many slots have owners,
// and so how many loads one StableSum pass costs.
func (p *PerThread) Registered() int { return int(p.n.Load()) }

// Bump advances thread tid's slot by one, toggling its parity. Writers
// call it in pairs bracketing their store phase.
func (p *PerThread) Bump(tid int) { p.slots[tid].Add(1) }

// StableSum reads the logical clock: the sum of the registered threads'
// counters, sampled only when every one is even (no writer inside a
// store phase). The composite is still not atomic; callers bracket
// validations with two StableSums and retry on inequality.
//
//spectm:noalloc
func (p *PerThread) StableSum() uint64 {
	for spins := 0; ; spins++ {
		var t uint64
		odd := false
		s := p.slots[:p.n.Load()]
		for i := range s {
			v := s[i].Load()
			if v&1 == 1 {
				odd = true
				break
			}
			t += v
		}
		if !odd {
			return t
		}
		if spins&0xf == 0xf {
			runtime.Gosched()
		}
	}
}
