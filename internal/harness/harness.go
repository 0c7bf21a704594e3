// Package harness runs the paper's integer-set workloads (§4.4):
// threads perform a random mix of lookups, insertions and removals over
// keys drawn uniformly from a range; the set starts half full; insert
// and remove rates are equal so the size stays roughly constant.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spectm/internal/core"
	"spectm/internal/intset"
	"spectm/internal/rng"
)

// Workload describes one experiment point.
type Workload struct {
	Structure string        // "hash" or "skip"
	Variant   string        // intset variant name
	Buckets   int           // hash only (0 = intset's default)
	KeyRange  uint64        // default 65536 (the paper's 0–65535)
	LookupPct int           // 0..100; the rest splits evenly into add/remove
	Threads   int           // concurrent workers
	Duration  time.Duration // measurement time
	Seed      uint64        // workload seed
}

func (w Workload) withDefaults() Workload {
	if w.KeyRange == 0 {
		w.KeyRange = 65536
	}
	if w.Threads == 0 {
		w.Threads = 1
	}
	if w.Duration == 0 {
		w.Duration = time.Second
	}
	if w.Seed == 0 {
		w.Seed = 0xC0FFEE
	}
	return w
}

// Result reports one experiment point.
type Result struct {
	Workload  Workload
	Ops       uint64
	Elapsed   time.Duration
	OpsPerSec float64
	Stats     core.Stats // aggregate over STM threads (zero otherwise)
}

// thrStats is implemented by STM-backed set threads.
type thrStats interface {
	Thr() *core.Thr
}

// Prefill applies the defaults to w, builds its set and inserts random
// keys until the set holds half the key range (§4.4 "the set is
// initialized by inserting half of the elements from the key range").
// The set has room for w.Threads workers plus the filling thread.
func (w *Workload) Prefill() (intset.Set, error) {
	*w = w.withDefaults()
	if w.Variant == "sequential" && w.Threads != 1 {
		return nil, fmt.Errorf("harness: sequential variant requires exactly 1 thread")
	}
	set, err := intset.New(intset.Config{
		Structure:  w.Structure,
		Variant:    w.Variant,
		Buckets:    w.Buckets,
		MaxThreads: w.Threads + 1,
	})
	if err != nil {
		return nil, err
	}
	init := set.NewThread()
	r := rng.New(w.Seed)
	for inserted := uint64(0); inserted < w.KeyRange/2; {
		if init.Add(r.Intn(w.KeyRange)) {
			inserted++
		}
	}
	return set, nil
}

// Op performs one operation of the mix on th: a lookup, insert or
// remove of a key drawn uniformly from the range. w must be prefilled.
func (w *Workload) Op(th intset.Thread, r *rng.State) {
	key := r.Intn(w.KeyRange)
	switch pick := int(r.Intn(100)); {
	case pick < w.LookupPct:
		th.Contains(key)
	case pick < w.LookupPct+(100-w.LookupPct)/2:
		th.Add(key)
	default:
		th.Remove(key)
	}
}

// Run executes the workload and reports throughput.
func Run(w Workload) (Result, error) {
	set, err := w.Prefill()
	if err != nil {
		return Result{}, err
	}
	ops, stats, elapsed, _ := runWorkers(w.Threads, w.Duration, func(id int) workerBody {
		th := set.NewThread()
		wr := rng.New(w.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		return func(stop *atomic.Bool) (uint64, core.Stats) {
			var ops uint64
			for !stop.Load() {
				// Batch the stop check to keep the loop tight.
				for k := 0; k < 64; k++ {
					w.Op(th, wr)
				}
				ops += 64
			}
			if st, ok := th.(thrStats); ok && st.Thr() != nil {
				return ops, st.Thr().Stats
			}
			return ops, core.Stats{}
		}
	})

	res := Result{Workload: w, Elapsed: elapsed, Ops: ops, Stats: stats}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	return res, nil
}

// workerBody is one worker's measured loop: it spins until stop is set
// and returns the worker's operation count and STM stats.
type workerBody func(stop *atomic.Bool) (uint64, core.Stats)

// runWorkers is the shared benchmark driver: it spawns n workers, runs
// each one's setup (thread registration, PRNG seeding) in its goroutine
// before the start gate, and measures exactly the window between
// releasing the gate and draining the workers. It returns total ops,
// aggregated STM stats, elapsed wall time and the window's process-wide
// malloc count.
func runWorkers(n int, d time.Duration, setup func(id int) workerBody) (uint64, core.Stats, time.Duration, uint64) {
	var stop atomic.Bool
	counts := make([]uint64, n)
	sts := make([]core.Stats, n)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func(id int) {
			defer done.Done()
			body := setup(id)
			ready.Done()
			<-start
			counts[id], sts[id] = body(&stop)
		}(i)
	}
	ready.Wait()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var ops uint64
	var stats core.Stats
	for i := 0; i < n; i++ {
		ops += counts[i]
		stats.Add(sts[i])
	}
	return ops, stats, elapsed, after.Mallocs - before.Mallocs
}
