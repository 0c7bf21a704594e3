// The single-threaded microbenchmark of the paper's §4.3 (Figure 5):
// arrays of cache-line-aligned items, short transactions on randomly
// chosen (consecutive, for multi-location ops) items, execution time
// normalized against optimized sequential code — plain loads for the
// read-only shapes, a single-word CAS per item for the read-write
// shapes.
package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

// MicroOps lists the transaction shapes of Fig 5, in presentation order.
func MicroOps() []string { return []string{"read-1", "ro-2", "ro-4", "rw-1", "rw-2", "rw-4"} }

// MicroVariants lists the systems compared in Fig 5.
func MicroVariants() []string {
	return []string{"sequential", "orec-full-g", "orec-short-g", "tvar-short-g", "val-short", "val-full"}
}

// MicroSizes are the array sizes of Fig 5(a–c): half of a 32KB L1, half
// of a 256KB L2, and half of an 8MB L3, in 64-byte items.
func MicroSizes() []int { return []int{128, 1024, 32768} }

// paddedCell keeps each item on its own cache line, mirroring the
// paper's L2-cache-line-aligned array of pointers.
type paddedCell struct {
	c core.Cell
	_ [48]byte
}

// paddedWord is the sequential-baseline item.
type paddedWord struct {
	w uint64
	_ [56]byte
}

// microEngine builds the engine for a Fig 5 variant. val-full uses pure
// value-based validation (the paper's non-re-use assumption) rather than
// commit counters.
func microEngine(variant string) *core.Engine {
	switch variant {
	case "orec-full-g", "orec-short-g":
		return core.New(core.Config{Layout: core.LayoutOrec})
	case "tvar-short-g":
		return core.New(core.Config{Layout: core.LayoutTVar})
	case "val-short", "val-full":
		return core.New(core.Config{Layout: core.LayoutVal, CC: core.CCNoCounter})
	}
	panic("harness: unknown micro variant " + variant)
}

// MicroBench measures one (variant, op, size) cell of Fig 5 and returns
// nanoseconds per operation. It runs for at least minTime.
func MicroBench(variant, op string, size int, minTime time.Duration) float64 {
	return timeLoop(NewMicroRunner(variant, op, size), rng.New(42), uint64(size-1), minTime)
}

// NewMicroRunner builds the per-operation closure for one Fig 5 cell,
// the sequential baseline included. The argument is a random index
// (masked to the array size by the caller).
func NewMicroRunner(variant, op string, size int) func(i uint64) {
	if size&(size-1) != 0 {
		panic("harness: micro array size must be a power of two")
	}
	if variant == "sequential" {
		return microSequential(op, size)
	}
	mask := uint64(size - 1)
	e := microEngine(variant)
	t := e.Register()
	cells := make([]paddedCell, size)
	vars := make([]core.Var, size)
	for i := range cells {
		cells[i].c.Init(word.FromUint(uint64(i)))
		vars[i] = e.VarOf(&cells[i].c, uint64(i)+1)
	}
	full := variant == "orec-full-g" || variant == "val-full"

	var one func(i uint64)
	switch {
	case op == "read-1" && !full:
		one = func(i uint64) { t.SingleRead(vars[i]) }
	case op == "read-1" && full:
		one = func(i uint64) {
			t.TxStart()
			t.TxRead(vars[i])
			t.TxCommit()
		}
	case op == "ro-2" && !full:
		one = func(i uint64) {
			d, _, _ := t.ShortRO2(vars[i], vars[(i+1)&mask])
			d.Valid()
		}
	case op == "ro-4" && !full:
		one = func(i uint64) {
			d, _, _, _, _ := t.ShortRO4(vars[i], vars[(i+1)&mask], vars[(i+2)&mask], vars[(i+3)&mask])
			d.Valid()
		}
	case (op == "ro-2" || op == "ro-4") && full:
		n := uint64(2)
		if op == "ro-4" {
			n = 4
		}
		one = func(i uint64) {
			t.TxStart()
			for k := uint64(0); k < n; k++ {
				t.TxRead(vars[(i+k)&mask])
			}
			t.TxCommit()
		}
	case op == "rw-1" && !full:
		one = func(i uint64) {
			d, x := t.ShortRW1(vars[i])
			if !d.Valid() {
				panic("harness: conflict in single-threaded micro")
			}
			d.Commit(word.FromUint(x.Uint() + 1))
		}
	case op == "rw-2" && !full:
		one = func(i uint64) {
			d, x1, x2 := t.ShortRW2(vars[i], vars[(i+1)&mask])
			if !d.Valid() {
				panic("harness: conflict in single-threaded micro")
			}
			d.Commit(word.FromUint(x1.Uint()+1), word.FromUint(x2.Uint()+1))
		}
	case op == "rw-4" && !full:
		one = func(i uint64) {
			d, x1, x2, x3, x4 := t.ShortRW4(vars[i], vars[(i+1)&mask], vars[(i+2)&mask], vars[(i+3)&mask])
			if !d.Valid() {
				panic("harness: conflict in single-threaded micro")
			}
			d.Commit(word.FromUint(x1.Uint()+1), word.FromUint(x2.Uint()+1),
				word.FromUint(x3.Uint()+1), word.FromUint(x4.Uint()+1))
		}
	case full: // rw-1/2/4 over the ordinary interface
		var n uint64
		switch op {
		case "rw-1":
			n = 1
		case "rw-2":
			n = 2
		case "rw-4":
			n = 4
		default:
			panic("harness: unknown micro op " + op)
		}
		one = func(i uint64) {
			t.TxStart()
			for k := uint64(0); k < n; k++ {
				v := vars[(i+k)&mask]
				x := t.TxRead(v)
				t.TxWrite(v, word.FromUint(x.Uint()+1))
			}
			if !t.TxCommit() {
				panic("harness: conflict in single-threaded micro")
			}
		}
	default:
		panic(fmt.Sprintf("harness: unknown micro op %q", op))
	}
	return one
}

var microSink uint64

// microSequential builds the unsynchronized baseline: plain loads for
// reads, one single-word CAS per item for writes (§4.3).
func microSequential(op string, size int) func(i uint64) {
	mask := uint64(size - 1)
	items := make([]paddedWord, size)
	for i := range items {
		items[i].w = uint64(i)
	}
	switch op {
	case "read-1":
		return func(i uint64) { microSink += items[i].w }
	case "ro-2":
		return func(i uint64) { microSink += items[i].w + items[(i+1)&mask].w }
	case "ro-4":
		return func(i uint64) {
			microSink += items[i].w + items[(i+1)&mask].w + items[(i+2)&mask].w + items[(i+3)&mask].w
		}
	case "rw-1", "rw-2", "rw-4":
		var n uint64
		switch op {
		case "rw-1":
			n = 1
		case "rw-2":
			n = 2
		default:
			n = 4
		}
		return func(i uint64) {
			for k := uint64(0); k < n; k++ {
				p := &items[(i+k)&mask].w
				old := atomic.LoadUint64(p)
				atomic.CompareAndSwapUint64(p, old, old+1)
			}
		}
	}
	panic(fmt.Sprintf("harness: unknown micro op %q", op))
}

// timeLoop runs op in batches until minTime has elapsed and returns
// ns/op.
func timeLoop(one func(i uint64), r *rng.State, mask uint64, minTime time.Duration) float64 {
	const batch = 4096
	// Warm up caches and lazy structures.
	for k := 0; k < batch; k++ {
		one(r.Next() & mask)
	}
	var total time.Duration
	var ops uint64
	for total < minTime {
		start := time.Now()
		for k := 0; k < batch; k++ {
			one(r.Next() & mask)
		}
		total += time.Since(start)
		ops += batch
	}
	return float64(total.Nanoseconds()) / float64(ops)
}
