// Map workload: mixed get/put/delete/batch traffic against the sharded
// transactional map, with uniform or Zipf-distributed keys — the
// "serves heavy traffic" benchmark the ROADMAP grows toward, as opposed
// to the paper's §4.4 integer-set microbenchmarks.
package harness

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// MapWorkload describes one experiment point against shardmap.Map.
type MapWorkload struct {
	Shards         int // 0 = map default
	InitialBuckets int // 0 = map default

	Keys      int    // distinct key population (default 65536)
	GetPct    int    // lookup share; defaults below
	PutPct    int    // insert/update share
	DeletePct int    // removal share
	BatchPct  int    // atomic GetBatch share (BatchKeys keys each)
	BatchKeys int    // keys per batch (default 2; ≥3 exercises the wide paths)
	ScanPct   int    // ordered Scan share (forces WithOrdered)
	ScanLimit int    // keys per scan (default 100)
	Dist      string // "uniform" (default) or "zipf"
	Layout    string // "val" (default), "tvar" or "orec"
	CC        string // "ext" (default), "lazy", "eager", "local" or "nocounter"

	// Fsync, when non-empty, runs the map with persistence enabled in a
	// temporary directory under the given policy ("always", "every=N",
	// "interval=D") — the durability-tax experiment. The directory is
	// removed after the run.
	Fsync string

	Threads  int
	Duration time.Duration
	Seed     uint64
}

func (w MapWorkload) withDefaults() MapWorkload {
	if w.Keys == 0 {
		w.Keys = 65536
	}
	if w.GetPct == 0 && w.PutPct == 0 && w.DeletePct == 0 && w.BatchPct == 0 && w.ScanPct == 0 {
		w.GetPct, w.PutPct, w.DeletePct, w.BatchPct = 90, 8, 1, 1
	}
	if w.BatchKeys == 0 {
		w.BatchKeys = 2
	}
	if w.ScanLimit == 0 {
		w.ScanLimit = 100
	}
	if w.Dist == "" {
		w.Dist = "uniform"
	}
	if w.Layout == "" {
		w.Layout = "val"
	}
	if w.CC == "" {
		w.CC = "ext"
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

// MapResult reports one map experiment point.
type MapResult struct {
	Workload    MapWorkload
	Ops         uint64
	Elapsed     time.Duration
	OpsPerSec   float64
	AllocsPerOp float64 // process-wide mallocs per operation during the run
	Stats       core.Stats
	MapStats    shardmap.OpStats // batch routing incl. snapshot counters
}

// parseCC maps a policy name to its core constant (the names WithCC's
// constants String() to).
func parseCC(name string) (core.CC, error) {
	switch name {
	case "ext":
		return core.CCTimestampExt, nil
	case "lazy":
		return core.CCLazy, nil
	case "eager":
		return core.CCEager, nil
	case "local":
		return core.CCLocal, nil
	case "nocounter":
		return core.CCNoCounter, nil
	default:
		return 0, fmt.Errorf("harness: unknown concurrency-control policy %q", name)
	}
}

// mapEngine builds the engine for a layout and concurrency-control
// policy, at the default capacity: the figures measure the engine as
// shipped. Versioned layouts under a global clock also get snapshot
// history, routing wide batches through multi-version reads — the
// configuration FigCC compares.
func mapEngine(layout, cc string) (*core.Engine, error) {
	var cfg core.Config
	switch layout {
	case "val":
		cfg.Layout = core.LayoutVal
	case "tvar":
		cfg.Layout = core.LayoutTVar
	case "orec":
		cfg.Layout = core.LayoutOrec
	default:
		return nil, fmt.Errorf("harness: unknown map layout %q", layout)
	}
	pol, err := parseCC(cc)
	if err != nil {
		return nil, err
	}
	cfg.CC = pol
	cfg.Snapshots = cfg.Layout != core.LayoutVal &&
		pol != core.CCLocal && pol != core.CCNoCounter
	return core.NewChecked(cfg)
}

// zipfSource adapts the repository PRNG to math/rand for the Zipf
// sampler (setup-time only; sampling itself is allocation-free).
type zipfSource struct{ s *rng.State }

func (z zipfSource) Int63() int64   { return int64(z.s.Next() >> 1) }
func (z zipfSource) Uint64() uint64 { return z.s.Next() }
func (z zipfSource) Seed(int64)     {}

// keyPicker returns a sampler over [0, n) for the configured
// distribution. The Zipf exponent 1.1 gives the classic hot-key skew of
// key-value-store traffic studies.
func keyPicker(dist string, r *rng.State, n int) (func() int, error) {
	switch dist {
	case "uniform":
		return func() int { return int(r.Intn(uint64(n))) }, nil
	case "zipf":
		z := rand.NewZipf(rand.New(zipfSource{r}), 1.1, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }, nil
	default:
		return nil, fmt.Errorf("harness: unknown key distribution %q", dist)
	}
}

// RunMap executes the map workload and reports throughput.
func RunMap(w MapWorkload) (MapResult, error) {
	w = w.withDefaults()
	if w.GetPct+w.PutPct+w.DeletePct+w.BatchPct+w.ScanPct != 100 {
		return MapResult{}, fmt.Errorf("harness: op mix %d/%d/%d/%d/%d does not sum to 100",
			w.GetPct, w.PutPct, w.DeletePct, w.BatchPct, w.ScanPct)
	}
	e, err := mapEngine(w.Layout, w.CC)
	if err != nil {
		return MapResult{}, err
	}
	if _, err := keyPicker(w.Dist, rng.New(1), w.Keys); err != nil {
		return MapResult{}, err
	}
	var mopts []shardmap.Option
	if w.ScanPct > 0 {
		mopts = append(mopts, shardmap.WithOrdered())
	}
	if w.Shards > 0 {
		mopts = append(mopts, shardmap.WithShards(w.Shards))
	}
	if w.InitialBuckets > 0 {
		mopts = append(mopts, shardmap.WithInitialBuckets(w.InitialBuckets))
	}
	var m *shardmap.Map
	if w.Fsync != "" {
		policy, err := wal.ParsePolicy(w.Fsync)
		if err != nil {
			return MapResult{}, err
		}
		dir, err := os.MkdirTemp("", "spectm-durable-*")
		if err != nil {
			return MapResult{}, err
		}
		defer os.RemoveAll(dir)
		if m, err = shardmap.Open(e, dir, append(mopts, shardmap.WithPersistence(dir, policy))...); err != nil {
			return MapResult{}, err
		}
		defer m.Close()
	} else {
		m = shardmap.New(e, mopts...)
	}

	keys := make([]string, w.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	init := m.NewThread()
	for i, k := range keys {
		init.Put(k, word.FromUint(uint64(i)))
	}

	ops, stats, elapsed, mallocs := runWorkers(w.Threads, w.Duration, func(id int) workerBody {
		th := m.NewThread()
		r := rng.New(w.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		pick, _ := keyPicker(w.Dist, r, w.Keys) // dist validated above
		bkeys := make([]string, w.BatchKeys)
		bvals := make([]shardmap.Value, w.BatchKeys)
		bfound := make([]bool, w.BatchKeys)
		skeys := make([]string, 0, w.ScanLimit)
		svals := make([]shardmap.Value, 0, w.ScanLimit)
		return func(stop *atomic.Bool) (uint64, core.Stats) {
			var ops uint64
			for !stop.Load() {
				// Batch the stop check to keep the loop tight.
				for k := 0; k < 64; k++ {
					key := keys[pick()]
					switch p := int(r.Intn(100)); {
					case p < w.GetPct:
						th.Get(key)
					case p < w.GetPct+w.PutPct:
						th.Put(key, word.FromUint(r.Next()>>3))
					case p < w.GetPct+w.PutPct+w.DeletePct:
						th.Delete(key)
					case p < w.GetPct+w.PutPct+w.DeletePct+w.BatchPct:
						bkeys[0] = key
						for i := 1; i < len(bkeys); i++ {
							bkeys[i] = keys[pick()]
						}
						th.GetBatch(bkeys, bvals, bfound)
					default:
						skeys, svals, _ = th.Scan(key, "", w.ScanLimit, skeys[:0], svals[:0])
					}
					ops++
				}
			}
			return ops, th.Thr().Stats
		}
	})

	res := MapResult{Workload: w, Elapsed: elapsed, Ops: ops, Stats: stats, MapStats: m.OpStats()}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	if res.Ops > 0 {
		res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	}
	return res, nil
}
