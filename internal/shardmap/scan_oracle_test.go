// Model-based ordered oracle: concurrent churn against the ordered map
// while scanners assert the invariants Scan and IndexScan promise, then
// a quiescent exact comparison against a mirrored sorted model.
//
// Structure per (seed, distribution):
//
//   - Churn writers own disjoint key ranges ("w" keys) and mirror every
//     committed mutation into a reference model — disjoint ownership
//     makes the mirror race-free without coupling it to the map's
//     internal synchronization.
//   - A pair swapper Swap2s dedicated "p" key pairs whose values always
//     sum to pairSum. Scans read each value in its own ShortRO2, so a
//     concurrent scan may legitimately mix a pair's old and new halves;
//     the sum is checked once the churn has joined.
//   - Scanners run throughout: every Scan result must be strictly
//     sorted, within bounds, within limit, and every "w" value must
//     identify its key (values encode the key index). Every IndexScan
//     result must be sorted by (index key, primary key) and name only
//     live universe keys.
//   - After the churn joins, a full Scan and a full IndexScan must
//     exactly equal the model (membership, order and values), and the
//     pair invariant must hold in the final state.
//
// Seeds shrink under -short, matching the repo's oracle convention.
package shardmap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spectm/internal/core"
	"spectm/internal/rng"
	"spectm/internal/word"
)

var scanOracleSeeds = []int64{0x0D15EA5E, 2, 3}

const (
	scanOracleWriters = 4
	scanOracleRange   = 384 // keys per writer
	scanOraclePairs   = 16
	pairSum           = 1 << 30
)

// wval encodes (key index, version) so a scanned value identifies its
// key: any cross-key mixup shows up as a domain violation.
func wval(i, version int) word.Value {
	return word.FromUint(uint64(i)<<20 | uint64(version&0xFFFFF))
}

// scanChurn drives one writer's churn over its own key range, mirroring
// into its private model shard.
func scanChurn(x *Thread, keys []string, base int, pick func() int, ops int, ref map[string]word.Value) {
	for v := 0; v < ops; v++ {
		i := pick()
		k := keys[i]
		switch v % 5 {
		case 0, 1, 2:
			val := wval(base+i, v)
			x.Put(k, val)
			ref[k] = val
		case 3:
			val := wval(base+i, v)
			if x.Update(k, val) {
				ref[k] = val
			}
		default:
			x.Delete(k)
			delete(ref, k)
		}
	}
}

func TestScanOracle(t *testing.T) {
	seeds := scanOracleSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, dist := range []string{"uniform", "zipf"} {
			t.Run(fmt.Sprintf("seed=%#x/%s", seed, dist), func(t *testing.T) {
				runScanOracle(t, seed, dist)
			})
		}
	}
}

func runScanOracle(t *testing.T, seed int64, dist string) {
	e := core.New(core.Config{MaxThreads: oracleMaxThreads})
	m := New(e, WithOrdered(), WithShards(4), WithInitialBuckets(8))
	setup := m.NewThread()

	ops := 6000
	if testing.Short() {
		ops = 2000
	}

	// Pair keys, initialized to a valid split of pairSum.
	prand := rand.New(rand.NewSource(seed))
	pairA := make([]string, scanOraclePairs)
	pairB := make([]string, scanOraclePairs)
	for p := 0; p < scanOraclePairs; p++ {
		pairA[p] = fmt.Sprintf("p%03da", p)
		pairB[p] = fmt.Sprintf("p%03db", p)
		v := uint64(prand.Intn(pairSum))
		setup.Put(pairA[p], word.FromUint(v))
		setup.Put(pairB[p], word.FromUint(pairSum-v))
	}
	if err := setup.CreateIndex("byval", "value"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}

	// Writer key ranges (disjoint) and their distribution samplers.
	keys := make([][]string, scanOracleWriters)
	for w := range keys {
		keys[w] = make([]string, scanOracleRange)
		for i := range keys[w] {
			keys[w][i] = fmt.Sprintf("w%d-%05d", w, i)
		}
	}
	picker := func(w int) func() int {
		r := rng.New(uint64(seed) ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
		if dist == "uniform" {
			return func() int { return int(r.Intn(scanOracleRange)) }
		}
		z := rand.NewZipf(rand.New(rand.NewSource(seed+int64(w))), 1.1, 1, scanOracleRange-1)
		return func() int { return int(z.Uint64()) }
	}

	refs := make([]map[string]word.Value, scanOracleWriters)
	var wg sync.WaitGroup
	for w := 0; w < scanOracleWriters; w++ {
		refs[w] = make(map[string]word.Value, scanOracleRange)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scanChurn(m.NewThread(), keys[w], w*scanOracleRange, picker(w), ops, refs[w])
		}(w)
	}
	// Pair swapper: the sum invariant holds across every commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := m.NewThread()
		r := rng.New(uint64(seed) * 31)
		for v := 0; v < ops; v++ {
			p := int(r.Intn(scanOraclePairs))
			if !x.Swap2(pairA[p], pairB[p]) {
				t.Errorf("Swap2(%s, %s) failed", pairA[p], pairB[p])
				return
			}
		}
	}()

	// Scanners: invariant checks under churn until the writers join.
	done := make(chan struct{})
	var swg sync.WaitGroup
	for s := 0; s < 2; s++ {
		swg.Add(1)
		go func(s int) {
			defer swg.Done()
			x := m.NewThread()
			r := rng.New(uint64(seed) ^ (uint64(s)+77)*0x9e3779b97f4a7c15)
			skeys := make([]string, 0, 1024)
			svals := make([]Value, 0, 1024)
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				var start, end string
				limit := 0
				switch round % 3 {
				case 1: // random range
					w := int(r.Intn(scanOracleWriters))
					i, j := int(r.Intn(scanOracleRange)), int(r.Intn(scanOracleRange))
					if i > j {
						i, j = j, i
					}
					start, end = keys[w][i], keys[w][j]
				case 2: // limited
					limit = 1 + int(r.Intn(64))
				}
				var err error
				skeys, svals, err = x.Scan(start, end, limit, skeys[:0], svals[:0])
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if !checkScanInvariants(t, skeys, svals, start, end, limit) {
					return
				}
				if round%4 == 0 {
					if !checkIndexScanInvariants(t, x, r) {
						return
					}
				}
			}
		}(s)
	}

	wg.Wait()
	close(done)
	swg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent exact comparison against the mirrored model.
	model := make(map[string]word.Value)
	for _, ref := range refs {
		for k, v := range ref {
			model[k] = v
		}
	}
	check := m.NewThread()
	for p := 0; p < scanOraclePairs; p++ {
		va, oka := check.Get(pairA[p])
		vb, okb := check.Get(pairB[p])
		if !oka || !okb || va.Uint()+vb.Uint() != pairSum {
			t.Fatalf("final pair %d: %v/%v %v/%v, want sum %d", p, va, oka, vb, okb, pairSum)
		}
		model[pairA[p]] = va
		model[pairB[p]] = vb
	}

	gotK, gotV, err := check.Scan("", "", 0, nil, nil)
	if err != nil {
		t.Fatalf("final Scan: %v", err)
	}
	if len(gotK) != len(model) {
		t.Fatalf("final Scan: %d keys, model has %d", len(gotK), len(model))
	}
	for i, k := range gotK {
		if i > 0 && gotK[i-1] >= k {
			t.Fatalf("final Scan unsorted: %q before %q", gotK[i-1], k)
		}
		want, ok := model[k]
		if !ok || gotV[i] != want {
			t.Fatalf("final Scan[%s] = %v, model %v (present %v)", k, gotV[i], want, ok)
		}
	}

	// Final IndexScan must equal the model sorted by (value hex, key).
	ikeys, ivals, err := check.IndexScan("byval", "", "", 0, nil, nil)
	if err != nil {
		t.Fatalf("final IndexScan: %v", err)
	}
	if len(ikeys) != len(model) {
		t.Fatalf("final IndexScan: %d keys, model has %d", len(ikeys), len(model))
	}
	prev := ""
	for i, k := range ikeys {
		want, ok := model[k]
		if !ok || ivals[i] != want {
			t.Fatalf("final IndexScan[%s] = %v, model %v (present %v)", k, ivals[i], want, ok)
		}
		comp := fmt.Sprintf("%016x\x00%s", ivals[i].Uint(), k)
		if comp <= prev {
			t.Fatalf("final IndexScan out of (index key, primary key) order at %s", k)
		}
		prev = comp
	}
}

// checkScanInvariants verifies one concurrent Scan result.
func checkScanInvariants(t *testing.T, keys []string, vals []Value, start, end string, limit int) bool {
	if len(keys) != len(vals) {
		t.Errorf("scan: %d keys, %d vals", len(keys), len(vals))
		return false
	}
	if limit > 0 && len(keys) > limit {
		t.Errorf("scan: %d keys over limit %d", len(keys), limit)
		return false
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			t.Errorf("scan unsorted: %q before %q", keys[i-1], k)
			return false
		}
		if k < start || (end != "" && k >= end) {
			t.Errorf("scan key %q outside [%q, %q)", k, start, end)
			return false
		}
		switch k[0] {
		case 'w':
			var w, idx int
			if _, err := fmt.Sscanf(k, "w%d-%05d", &w, &idx); err != nil {
				t.Errorf("scan: unknown key %q", k)
				return false
			}
			if got := vals[i].Uint() >> 20; got != uint64(w*scanOracleRange+idx) {
				t.Errorf("scan: %s holds value of key index %d", k, got)
				return false
			}
		case 'p':
			var p int
			if _, err := fmt.Sscanf(k, "p%03d", &p); err != nil || len(k) != 5 {
				t.Errorf("scan: unknown key %q", k)
				return false
			}
		default:
			t.Errorf("scan: key %q outside the universe", k)
			return false
		}
	}
	return true
}

// checkIndexScanInvariants verifies one concurrent IndexScan over a
// random value range: (index key, primary key) order and universe
// membership.
func checkIndexScanInvariants(t *testing.T, x *Thread, r *rng.State) bool {
	lo := r.Next() & word.MaxPayload
	hi := lo + (r.Next() & 0xFFFFFFFF)
	keys, vals, err := x.IndexScan("byval", fmt.Sprintf("%016x", lo), fmt.Sprintf("%016x", hi), 0, nil, nil)
	if err != nil {
		t.Errorf("IndexScan: %v", err)
		return false
	}
	prev := ""
	for i, k := range keys {
		if k[0] != 'w' && k[0] != 'p' {
			t.Errorf("IndexScan: key %q outside the universe", k)
			return false
		}
		u := vals[i].Uint()
		if u < lo || u >= hi {
			t.Errorf("IndexScan: value %d outside [%d, %d)", u, lo, hi)
			return false
		}
		comp := fmt.Sprintf("%016x\x00%s", u, k)
		if comp <= prev {
			t.Errorf("IndexScan out of (index key, primary key) order at %s", k)
			return false
		}
		prev = comp
	}
	return true
}
