// Package backoff implements the contention manager used throughout the
// reproduction: on conflict a transaction aborts itself and waits for a
// randomized linear time before restarting — the one policy the paper's
// BaseTM uses (phase 1 of SwissTM's two-phase design). Wait is that
// delay; Yield is the scheduler hand-off bounded lock-bit spins use.
package backoff

import (
	"runtime"
	"sync/atomic"

	"spectm/internal/rng"
)

const (
	// unit is the number of busy-spin iterations per backoff unit.
	unit = 32
	// maxUnits caps the linear growth so a long abort streak cannot park
	// a thread for an unbounded time.
	maxUnits = 1024
	// spinBudget is how many iterations we burn before yielding to the
	// scheduler. Go programs routinely run more workers than cores, so
	// pure busy waiting would invert priorities; we spin briefly and then
	// Gosched, which on an uncontended box is never reached.
	spinBudget = 256
)

var sink atomic.Uint64 // defeats dead-code elimination of the spin loop

// bound returns the exclusive upper bound of the randomized spin budget
// Wait draws from for attempt: attempts below 1 clamp to 1, growth is
// linear in attempt, and maxUnits caps it.
func bound(attempt int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	units := attempt
	if units > maxUnits {
		units = maxUnits
	}
	return uint64(units*unit) + 1
}

// Wait blocks the caller for a randomized time linear in attempt
// (1-based). It is the paper's "randomized linear time before restarting".
func Wait(r *rng.State, attempt int) {
	spin(r.Intn(bound(attempt)))
}

// spin busy-waits for n iterations, yielding every spinBudget.
func spin(n uint64) {
	var acc uint64
	for i := uint64(0); i < n; i++ {
		acc += i
		if i%spinBudget == spinBudget-1 {
			runtime.Gosched()
		}
	}
	sink.Add(acc)
}

// Yield cedes the processor once. Used inside bounded spin loops (e.g.
// waiting for a lock bit to clear) where aborting is not an option.
func Yield() { runtime.Gosched() }
