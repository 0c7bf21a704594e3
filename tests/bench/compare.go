package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the tools read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), which is what the benchmark's driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// series collects, per (workload, metric), the values of every untraced
// run in an -out file.
func series(f *outFile) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareMain prints one row per (end-to-end metric, workload) with
// both sides' median and quartiles, the bound, and a verdict:
//
//	unresolved  either side's quartile spread is wider than the bound
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than A's spread
//	same        anything else
//
// It returns the process exit code: 1 when any row is worse.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var files [2]outFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := series(&files[0]), series(&files[1])
	fmt.Fprintf(out, "A: %s  commit %s  %d runs\nB: %s  commit %s  %d runs\n\n",
		args[0], files[0].Meta.GitCommit, len(files[0].Runs), args[1], files[1].Meta.GitCommit, len(files[1].Runs))
	fmt.Fprintf(out, "%-12s %-18s %14s %22s %14s %22s %6s %8s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "worse by", "verdict")
	worse := false
	for _, w := range workloads { // the ungated one too
		for _, m := range bj.EndToEnd {
			xa, xb := a[[2]string{w.name, m.Name}], b[[2]string{w.name, m.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := (b2 - a2) / a2 // > 0 is worse for "lower"
			if m.Better == "higher" {
				change = -change
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "same"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict, worse = "worse", true
			case -change > spreadA:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-12s %-18s %14.4f %22s %14.4f %22s %6.2f %+7.1f%%  %s\n", w.name, m.Name,
				a2, fmt.Sprintf("%.4g..%.4g", a1, a3), b2, fmt.Sprintf("%.4g..%.4g", b1, b3),
				m.Bound, 100*change, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}
