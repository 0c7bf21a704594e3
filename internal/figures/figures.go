// Package figures defines the paper's evaluation (§4) once, as the
// Figures table, and regenerates it. Run prints the series the paper
// plots — throughput per thread count per variant for the integer-set
// experiments, normalized single-thread execution times for the
// microbenchmark — and optionally writes CSV files. The root package's
// BenchmarkFigN benchmarks run the same table under testing.B.
//
// The paper's 16-way and 128-way testbeds become thread sweeps on the
// host; shapes (variant ranking, relative factors) are the reproduction
// target, not absolute numbers. The repository's own performance is
// measured and gated by the layer ledger in tests/bench, not here.
package figures

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spectm/internal/harness"
)

// Options configures the runners.
type Options struct {
	Out      io.Writer     // destination (default os.Stdout)
	CSVDir   string        // when set, write figN.csv files here
	Threads  []int         // thread counts (default 1..2*GOMAXPROCS)
	Duration time.Duration // per experiment point (default 1s)
	KeyRange uint64        // 0 = harness's default
	Seed     uint64
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if len(o.Threads) == 0 {
		n := runtime.GOMAXPROCS(0)
		for t := 1; t <= 2*n; t *= 2 {
			o.Threads = append(o.Threads, t)
		}
	}
	if o.Duration == 0 {
		o.Duration = time.Second
	}
	return o
}

// Figure is one figure of the paper's evaluation.
type Figure struct {
	Name   string   // "1", "5", …, "10"
	Series []Series // nil for Figure 5, which has its own runner
}

// Series is one integer-set sub-figure: every variant runs the §4.4
// workload on the same structure and mix.
type Series struct {
	Tag       string // printed tag and CSV file name, e.g. "fig6a"
	Sub       string // sub-benchmark name under BenchmarkFigN ("" for Figure 1)
	Structure string // "hash" or "skip"
	LookupPct int
	Buckets   int    // hash only
	Title     string // printed after the structure and key range
	Variants  []string
}

// The variant lists the paper plots. The "128-way" figures show the
// local-version variants, which dominate at that scale.
var (
	fig1Variants = []string{"lock-free", "val-short", "tvar-short-g", "orec-short-g", "orec-full-g"}
	fig6Variants = []string{"lock-free", "val-short", "tvar-short-g", "orec-short-g", "orec-full-g", "tvar-full-l", "orec-full-g-fine"}
	fig7Variants = []string{"lock-free", "val-short", "tvar-short-g", "tvar-short-l", "orec-short-l", "orec-full-g", "orec-full-l"}
	way128       = []string{"lock-free", "val-short", "tvar-short-l", "orec-short-l", "orec-full-l", "tvar-full-l"}
)

// Figures is the paper's evaluation in the paper's order, one row per
// series. Both cmd/spectm-bench and the BenchmarkFigN benchmarks run it.
var Figures = []Figure{
	{"1", []Series{
		{"fig1", "", "hash", 90, 16384, "16k buckets, 90% lookups (normalized to sequential)", fig1Variants},
	}},
	{"5", nil},
	{"6", []Series{
		{"fig6a", "a-90pct", "skip", 90, 0, "90% lookups", fig6Variants},
		{"fig6b", "b-10pct", "skip", 10, 0, "10% lookups", fig6Variants},
	}},
	{"7", []Series{
		{"fig7a", "a-90pct", "hash", 90, 16384, "16k buckets, 90% lookups", fig7Variants},
		{"fig7b", "b-10pct", "hash", 10, 16384, "16k buckets, 10% lookups", fig7Variants},
	}},
	{"8", []Series{
		{"fig8a", "a-98pct", "skip", 98, 0, "98% lookups (128-way series)", way128},
		{"fig8b", "b-90pct", "skip", 90, 0, "90% lookups (128-way series)", way128},
		{"fig8c", "c-10pct", "skip", 10, 0, "10% lookups (128-way series)", way128},
	}},
	{"9", []Series{
		{"fig9a", "a-98pct", "hash", 98, 16384, "16k buckets, 98% lookups (128-way series)", way128},
		{"fig9b", "b-90pct", "hash", 90, 16384, "16k buckets, 90% lookups (128-way series)", way128},
		{"fig9c", "c-10pct", "hash", 10, 16384, "16k buckets, 10% lookups (128-way series)", way128},
	}},
	{"10", []Series{
		{"fig10a", "a-98pct-64kbuckets", "hash", 98, 65536, "64k buckets, 98% lookups (0.5-entry chains at 64k keys)", way128},
		{"fig10b", "b-90pct-1kbuckets", "hash", 90, 1024, "1k buckets, 90% lookups (32-entry chains at 64k keys)", way128},
	}},
}

// Run regenerates the named figure, or every figure for "all".
func Run(o Options, name string) error {
	o = o.withDefaults()
	found := false
	for _, f := range Figures {
		if name != "all" && name != f.Name {
			continue
		}
		found = true
		if f.Series == nil {
			if err := fig5(o); err != nil {
				return err
			}
		}
		for _, s := range f.Series {
			if err := runSeries(o, s); err != nil {
				return err
			}
		}
	}
	if !found {
		return fmt.Errorf("figures: unknown figure %q", name)
	}
	return nil
}

// Workload is the §4.4 workload of one variant of s.
func (s Series) Workload(variant string) harness.Workload {
	return harness.Workload{Structure: s.Structure, Variant: variant, Buckets: s.Buckets, LookupPct: s.LookupPct}
}

// structureNames are the paper's names for the structures.
var structureNames = map[string]string{"hash": "hash table", "skip": "skip list"}

// keyCount writes a key count the way the titles do: 65536 as "64k".
func keyCount(n uint64) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dk", n/1024)
	}
	return fmt.Sprint(n)
}

// runSeries executes one sub-figure: a sequential 1-thread baseline,
// then every (threads, variant) point.
func runSeries(o Options, s Series) error {
	point := func(variant string, threads int) (harness.Result, error) {
		w := s.Workload(variant)
		w.KeyRange, w.Threads, w.Duration, w.Seed = o.KeyRange, threads, o.Duration, o.Seed
		return harness.Run(w)
	}
	base, err := point("sequential", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\n== %s: %s, %s keys, %s ==\n",
		s.Tag, structureNames[s.Structure], keyCount(base.Workload.KeyRange), s.Title)
	fmt.Fprintf(o.Out, "sequential baseline: %.0f ops/s (normalization = 1.0)\n", base.OpsPerSec)
	fmt.Fprintf(o.Out, "%-8s %-18s %14s %10s %12s\n", "threads", "variant", "ops/s", "vs-seq", "aborts")

	var csv *os.File
	if o.CSVDir != "" {
		f, err := os.Create(filepath.Join(o.CSVDir, s.Tag+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "threads,variant,ops_per_sec,normalized,aborts")
		fmt.Fprintf(csv, "1,sequential,%.0f,1.0,0\n", base.OpsPerSec)
	}

	for _, th := range o.Threads {
		for _, v := range s.Variants {
			res, err := point(v, th)
			if err != nil {
				return err
			}
			aborts := res.Stats.Aborts + res.Stats.ShortAborts
			norm := res.OpsPerSec / base.OpsPerSec
			fmt.Fprintf(o.Out, "%-8d %-18s %14.0f %10.2f %12d\n", th, v, res.OpsPerSec, norm, aborts)
			if csv != nil {
				fmt.Fprintf(csv, "%d,%s,%.0f,%.3f,%d\n", th, v, res.OpsPerSec, norm, aborts)
			}
		}
	}
	return nil
}

// fig5 regenerates Figure 5(a–c): single-threaded execution time of the
// short-transaction shapes, normalized to sequential code.
func fig5(o Options) error {
	perCell := o.Duration / 4
	if perCell < 20*time.Millisecond {
		perCell = 20 * time.Millisecond
	}
	var csv *os.File
	if o.CSVDir != "" {
		f, err := os.Create(filepath.Join(o.CSVDir, "fig5.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "array_size,op,variant,ns_per_op,normalized")
	}
	for _, size := range harness.MicroSizes() {
		fmt.Fprintf(o.Out, "\n== fig5: single-thread micro, %d cache-line items ==\n", size)
		fmt.Fprintf(o.Out, "%-8s", "op")
		for _, v := range harness.MicroVariants() {
			fmt.Fprintf(o.Out, " %13s", v)
		}
		fmt.Fprintln(o.Out, "   (normalized time; 1.0 = sequential)")
		for _, op := range harness.MicroOps() {
			var seqNs float64
			fmt.Fprintf(o.Out, "%-8s", op)
			for _, v := range harness.MicroVariants() {
				ns := harness.MicroBench(v, op, size, perCell)
				if v == "sequential" {
					seqNs = ns
				}
				norm := ns / seqNs
				fmt.Fprintf(o.Out, " %13.2f", norm)
				if csv != nil {
					fmt.Fprintf(csv, "%d,%s,%s,%.2f,%.3f\n", size, op, v, ns, norm)
				}
			}
			fmt.Fprintln(o.Out)
		}
	}
	return nil
}
