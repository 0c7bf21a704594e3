// Package figures regenerates every table and figure of the paper's
// evaluation (§4). Each FigN function prints the same series the paper
// plots — throughput per thread count per variant for the integer-set
// experiments, normalized single-thread execution times for the
// microbenchmark — and optionally writes CSV files.
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
	KeyRange uint64        // default 65536
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
	if o.KeyRange == 0 {
		o.KeyRange = 65536
	}
	return o
}

// series describes one integer-set sub-figure.
type series struct {
	fig       string // e.g. "fig6a"
	title     string
	structure string
	lookupPct int
	buckets   int
	variants  []string
}

// runSeries executes one sub-figure: a sequential 1-thread baseline,
// then every (threads, variant) point.
func runSeries(o Options, s series) error {
	fmt.Fprintf(o.Out, "\n== %s: %s ==\n", s.fig, s.title)
	base, err := harness.Run(harness.Workload{
		Structure: s.structure, Variant: "sequential", Buckets: s.buckets,
		KeyRange: o.KeyRange, LookupPct: s.lookupPct, Threads: 1,
		Duration: o.Duration, Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "sequential baseline: %.0f ops/s (normalization = 1.0)\n", base.OpsPerSec)
	fmt.Fprintf(o.Out, "%-8s %-18s %14s %10s %12s\n", "threads", "variant", "ops/s", "vs-seq", "aborts")

	var csv *os.File
	if o.CSVDir != "" {
		f, err := os.Create(filepath.Join(o.CSVDir, s.fig+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "threads,variant,ops_per_sec,normalized,aborts")
		fmt.Fprintf(csv, "1,sequential,%.0f,1.0,0\n", base.OpsPerSec)
	}

	for _, th := range o.Threads {
		for _, v := range s.variants {
			res, err := harness.Run(harness.Workload{
				Structure: s.structure, Variant: v, Buckets: s.buckets,
				KeyRange: o.KeyRange, LookupPct: s.lookupPct, Threads: th,
				Duration: o.Duration, Seed: o.Seed,
			})
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

// Fig1 regenerates Figure 1: hash table, 90% lookups, normalized
// throughput of the headline variants.
func Fig1(o Options) error {
	o = o.withDefaults()
	return runSeries(o, series{
		fig:       "fig1",
		title:     "hash table, 64k keys, 16k buckets, 90% lookups (normalized to sequential)",
		structure: "hash", lookupPct: 90, buckets: 16384,
		variants: []string{"lock-free", "val-short", "tvar-short-g", "orec-short-g", "orec-full-g"},
	})
}

// Fig5 regenerates Figure 5(a–c): single-threaded execution time of the
// short-transaction shapes, normalized to sequential code.
func Fig5(o Options) error {
	o = o.withDefaults()
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

// Fig6 regenerates Figure 6(a,b): skip list on the "16-way" workload.
func Fig6(o Options) error {
	o = o.withDefaults()
	variants := []string{"lock-free", "val-short", "tvar-short-g", "orec-short-g",
		"orec-full-g", "tvar-full-l", "orec-full-g-fine"}
	if err := runSeries(o, series{
		fig: "fig6a", title: "skip list, 64k keys, 90% lookups",
		structure: "skip", lookupPct: 90, variants: variants,
	}); err != nil {
		return err
	}
	return runSeries(o, series{
		fig: "fig6b", title: "skip list, 64k keys, 10% lookups",
		structure: "skip", lookupPct: 10, variants: variants,
	})
}

// Fig7 regenerates Figure 7(a,b): hash table on the "16-way" workload.
func Fig7(o Options) error {
	o = o.withDefaults()
	variants := []string{"lock-free", "val-short", "tvar-short-g", "tvar-short-l",
		"orec-short-l", "orec-full-g", "orec-full-l"}
	if err := runSeries(o, series{
		fig: "fig7a", title: "hash table, 64k keys, 16k buckets, 90% lookups",
		structure: "hash", lookupPct: 90, buckets: 16384, variants: variants,
	}); err != nil {
		return err
	}
	return runSeries(o, series{
		fig: "fig7b", title: "hash table, 64k keys, 16k buckets, 10% lookups",
		structure: "hash", lookupPct: 10, buckets: 16384, variants: variants,
	})
}

// fig89Variants are the series shown for the "128-way" experiments,
// where local-version variants dominate.
var fig89Variants = []string{"lock-free", "val-short", "tvar-short-l", "orec-short-l",
	"orec-full-l", "tvar-full-l"}

// Fig8 regenerates Figure 8(a–c): skip list on the "128-way" workload.
func Fig8(o Options) error {
	o = o.withDefaults()
	for _, p := range []struct {
		sub string
		pct int
	}{{"a", 98}, {"b", 90}, {"c", 10}} {
		if err := runSeries(o, series{
			fig:       "fig8" + p.sub,
			title:     fmt.Sprintf("skip list, 64k keys, %d%% lookups (128-way series)", p.pct),
			structure: "skip", lookupPct: p.pct, variants: fig89Variants,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Fig9 regenerates Figure 9(a–c): hash table on the "128-way" workload.
func Fig9(o Options) error {
	o = o.withDefaults()
	for _, p := range []struct {
		sub string
		pct int
	}{{"a", 98}, {"b", 90}, {"c", 10}} {
		if err := runSeries(o, series{
			fig:       "fig9" + p.sub,
			title:     fmt.Sprintf("hash table, 64k keys, 16k buckets, %d%% lookups (128-way series)", p.pct),
			structure: "hash", lookupPct: p.pct, buckets: 16384, variants: fig89Variants,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Fig10 regenerates Figure 10(a,b): hash tables with short (0.5-entry)
// and long (32-entry) bucket chains.
func Fig10(o Options) error {
	o = o.withDefaults()
	if err := runSeries(o, series{
		fig: "fig10a", title: "hash table, 98% lookups, 64k buckets (0.5-entry chains)",
		structure: "hash", lookupPct: 98, buckets: 65536, variants: fig89Variants,
	}); err != nil {
		return err
	}
	return runSeries(o, series{
		fig: "fig10b", title: "hash table, 90% lookups, 1k buckets (32-entry chains)",
		structure: "hash", lookupPct: 90, buckets: 1024, variants: fig89Variants,
	})
}

// All runs every figure.
func All(o Options) error {
	for _, f := range []func(Options) error{Fig1, Fig5, Fig6, Fig7, Fig8, Fig9, Fig10} {
		if err := f(o); err != nil {
			return err
		}
	}
	return nil
}
