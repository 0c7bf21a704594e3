package backoff

import (
	"testing"

	"spectm/internal/rng"
)

// TestWaitBound pins the randomized spin budget: attempts below 1 clamp
// to 1, growth is linear in attempt, and maxUnits caps it.
func TestWaitBound(t *testing.T) {
	cases := []struct {
		attempt int
		want    uint64
	}{
		{-5, unit + 1},
		{0, unit + 1},
		{1, unit + 1},
		{2, 2*unit + 1},
		{7, 7*unit + 1},
		{maxUnits, maxUnits*unit + 1},
		{maxUnits + 1, maxUnits*unit + 1},
		{1 << 20, maxUnits*unit + 1},
	}
	for _, c := range cases {
		if got := bound(c.attempt); got != c.want {
			t.Errorf("bound(%d) = %d, want %d", c.attempt, got, c.want)
		}
	}
}

// TestWaitDoesNotPanic drives Wait across the clamp edges with a real
// generator: the draw must stay within the bound (checked indirectly —
// Intn of the bound cannot exceed it) and never panic on attempt < 1.
func TestWaitDoesNotPanic(t *testing.T) {
	r := rng.New(1)
	for _, attempt := range []int{-1, 0, 1, 3, maxUnits * 2} {
		Wait(r, attempt)
	}
}

// TestWaitRandomized checks the draw is actually randomized within
// units*unit: across many draws at a fixed attempt the spin counts must
// not all collapse to one value, and none may reach the bound.
func TestWaitRandomized(t *testing.T) {
	r := rng.New(42)
	const attempt = 16
	b := bound(attempt)
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		n := r.Intn(b) // the exact draw Wait performs
		if n >= b {
			t.Fatalf("draw %d outside [0, %d)", n, b)
		}
		seen[n] = true
	}
	if len(seen) < 16 {
		t.Fatalf("256 draws produced only %d distinct values; not randomized", len(seen))
	}
}
