package harness

import (
	"testing"
	"time"

	"spectm/internal/intset"
)

func TestRunSmokeAllVariants(t *testing.T) {
	for _, structure := range []string{"hash", "skip"} {
		for _, v := range intset.Variants() {
			if structure == "hash" && v == "orec-full-g-fine" {
				continue
			}
			threads := 2
			if v == "sequential" {
				threads = 1
			}
			res, err := Run(Workload{
				Structure: structure,
				Variant:   v,
				Buckets:   256,
				KeyRange:  1024,
				LookupPct: 80,
				Threads:   threads,
				Duration:  30 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", structure, v, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%s: zero ops", structure, v)
			}
			if res.OpsPerSec <= 0 {
				t.Fatalf("%s/%s: nonpositive rate", structure, v)
			}
		}
	}
}

// The paper's "128-way" series: 128 workers plus the filling thread
// must all fit in the set's thread capacity.
func TestRun128Threads(t *testing.T) {
	for _, structure := range []string{"hash", "skip"} {
		for _, v := range []string{"val-short", "tvar-full-l", "lock-free"} {
			res, err := Run(Workload{
				Structure: structure,
				Variant:   v,
				KeyRange:  256,
				LookupPct: 90,
				Threads:   128,
				Duration:  20 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", structure, v, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%s: zero ops", structure, v)
			}
		}
	}
}

func TestSequentialRequiresOneThread(t *testing.T) {
	_, err := Run(Workload{Structure: "hash", Variant: "sequential", Threads: 2, Duration: time.Millisecond})
	if err == nil {
		t.Fatal("sequential at 2 threads must be rejected")
	}
}

func TestRunReportsSTMStats(t *testing.T) {
	res, err := Run(Workload{
		Structure: "hash", Variant: "val-short",
		Buckets: 64, KeyRange: 256, LookupPct: 10,
		Threads: 2, Duration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Singles == 0 {
		t.Fatal("val-short workload should record single-op transactions")
	}
	if res.Stats.ShortCommits == 0 {
		t.Fatal("val-short update-heavy workload should record short commits")
	}
}

func TestUnknownVariantPropagates(t *testing.T) {
	if _, err := Run(Workload{Structure: "hash", Variant: "nope", Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestMicroBenchAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("micro sweep is slow")
	}
	for _, v := range MicroVariants() {
		for _, op := range MicroOps() {
			ns := MicroBench(v, op, 128, time.Millisecond)
			if ns <= 0 {
				t.Fatalf("%s/%s: nonpositive ns/op", v, op)
			}
		}
	}
}

func TestMicroBenchBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size must panic")
		}
	}()
	MicroBench("sequential", "read-1", 100, time.Millisecond)
}
