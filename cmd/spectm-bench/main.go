// Command spectm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	spectm-bench -figure all -duration 2s -csv out/
//	spectm-bench -figure 6 -threads 1,2,4,8
//
// Each figure prints the series the paper plots, and with -csv also
// writes them as one CSV file per sub-figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"spectm/internal/figures"
)

// parseThreads parses, sorts and de-duplicates the -threads list.
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

func main() {
	var names []string
	for _, f := range figures.Figures {
		names = append(names, f.Name)
	}
	names = append(names, "all")
	var (
		figure   = flag.String("figure", "all", "figure to regenerate: "+strings.Join(names, ", "))
		duration = flag.Duration("duration", time.Second, "measurement time per experiment point")
		threads  = flag.String("threads", "", "comma-separated thread counts; sorted and de-duplicated (default 1..2*GOMAXPROCS)")
		keyrange = flag.Uint64("keyrange", 65536, "integer-set key range")
		csvDir   = flag.String("csv", "", "directory for CSV output (optional)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = default)")
	)
	flag.Parse()

	opts := figures.Options{
		Duration: *duration,
		KeyRange: *keyrange,
		CSVDir:   *csvDir,
		Seed:     *seed,
	}
	if *threads != "" {
		ts, err := parseThreads(*threads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectm-bench: %v\n", err)
			os.Exit(2)
		}
		opts.Threads = ts
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "spectm-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if !slices.Contains(names, *figure) {
		fmt.Fprintf(os.Stderr, "spectm-bench: unknown figure %q (known figures: %s)\n",
			*figure, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := figures.Run(opts, *figure); err != nil {
		fmt.Fprintf(os.Stderr, "spectm-bench: %v\n", err)
		os.Exit(1)
	}
}
