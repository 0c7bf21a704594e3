// Command bench is the layer ledger: one benchmark that pushes four
// workloads through the stack (core → shardmap → wal → proto → server →
// repl), checks every reply, and prints end-to-end and per-layer
// metrics by name with their units. See README.md.
//
//	go run . [-workload W] [-seed S] [-seconds N] [-trace 0|1] [-runs N] [-out F]
//	go run . -compare A.json B.json
//
// With -workload it speaks the benchmark driver's contract: the last
// line of standard output is one JSON object holding the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats the
// names, units and directions (the smoke test holds the two together)
// and adds the end-to-end bounds.
type metricDef struct {
	name, unit, better string
	e2e                bool
}

var metricDefs = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", true},
	{"latency_p50_us", "us", "lower", true},
	{"latency_p95_us", "us", "lower", true},
	{"cpu_us_per_op", "us", "lower", true},
	{"setup_s", "s", "lower", true},

	{"core.ns_per_op", "ns", "lower", false},
	{"core.allocs_per_op", "count", "lower", false},
	{"core.ro2_ns", "ns", "lower", false},
	{"core.ro1rw1_ns", "ns", "lower", false},
	{"core.rw2_ns", "ns", "lower", false},
	{"core.ro2rw2_ns", "ns", "lower", false},
	{"core.full2_ns", "ns", "lower", false},
	{"core.short_vs_full", "ratio", "higher", false},
	{"core.aborts_per_commit", "ratio", "lower", false},

	{"shardmap.ns_per_op", "ns", "lower", false},
	{"shardmap.self_ns_per_op", "ns", "lower", false},
	{"shardmap.allocs_per_op", "count", "lower", false},
	{"shardmap.get_ns", "ns", "lower", false},
	{"shardmap.update_ns", "ns", "lower", false},
	{"shardmap.insert_ns", "ns", "lower", false},
	{"shardmap.delete_ns", "ns", "lower", false},
	{"shardmap.cas_ns", "ns", "lower", false},
	{"shardmap.swap2_ns", "ns", "lower", false},
	{"shardmap.mget2_ns", "ns", "lower", false},
	{"shardmap.mget8_ns", "ns", "lower", false},
	{"shardmap.scan32_ns", "ns", "lower", false},
	{"shardmap.conflicts_per_op", "ratio", "lower", false},
	{"shardmap.escalations_per_op", "ratio", "lower", false},
	{"shardmap.snapshot_fallbacks_per_batch", "ratio", "lower", false},
	{"shardmap.scan_fallbacks_per_scan", "ratio", "lower", false},
	{"shardmap.bytes_per_key", "bytes", "lower", false},

	{"wal.self_ns_per_write", "ns", "lower", false},
	{"wal.bytes_per_write", "bytes", "lower", false},
	{"wal.records_per_write", "count", "lower", false},
	{"wal.syncs_per_write", "count", "lower", false},
	{"wal.write_calls_per_write", "count", "lower", false},
	{"wal.sync_ns", "ns", "lower", false},
	{"wal.replay_ns_per_record", "ns", "lower", false},
	{"wal.allocs_per_write", "count", "lower", false},

	{"proto.self_ns_per_cmd", "ns", "lower", false},
	{"proto.encode_cmd_ns", "ns", "lower", false},
	{"proto.decode_cmd_ns", "ns", "lower", false},
	{"proto.encode_reply_ns", "ns", "lower", false},
	{"proto.decode_reply_ns", "ns", "lower", false},
	{"proto.bytes_per_cmd", "bytes", "lower", false},
	{"proto.allocs_per_cmd", "count", "lower", false},

	{"server.self_ns_per_op", "ns", "lower", false},
	{"server.rr_p50_us", "us", "lower", false},
	{"server.sys_cpu_us_per_op", "us", "lower", false},
	{"server.voluntary_ctxsw_per_op", "count", "lower", false},
	{"server.rss_mb", "MiB", "lower", false},
	{"server.conflicts_per_op", "ratio", "lower", false},
	{"server.affinity_swaps", "count", "lower", false},
	{"server.refused", "count", "lower", false},
	{"server.wal_bytes_per_write", "bytes", "lower", false},

	{"repl.self_ns_per_write", "ns", "lower", false},
	{"repl.lag_records_p50", "count", "lower", false},
	{"repl.lag_records_max", "count", "lower", false},
	{"repl.catchup_s", "s", "lower", false},
	{"repl.sent_bytes_per_write", "bytes", "lower", false},
	{"repl.full_syncs", "count", "lower", false},

	{"client.latency_p99_us", "us", "lower", false},
	{"client.latency_p999_us", "us", "lower", false},
	{"client.latency_max_us", "us", "lower", false},
	{"client.latency_samples", "count", "higher", false},
	{"client.ops_attempted", "count", "higher", false},
	{"client.failed_ops_ratio", "ratio", "lower", false},
	{"client.cpu_us_per_op", "us", "lower", false},
	{"client.allocs_per_op", "count", "lower", false},
	{"client.trace_overhead_pct", "%", "lower", false},
}

// measured is one metric as the driver's result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload in an -out file.
type runRecord struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// outFile is the shape of -out (and the input of -compare).
type outFile struct {
	Meta hostMeta    `json:"meta"`
	Runs []runRecord `json:"runs"`
}

// env is what every run of this process shares.
type env struct {
	root, bin, dataRoot string
	meta                hostMeta
}

func newEnv(seed uint64, seconds int, needServer bool) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, dataRoot: filepath.Join(buildDir(root), "data")}
	if err := os.MkdirAll(e.dataRoot, 0o755); err != nil {
		return nil, err
	}
	if needServer {
		if e.bin, err = buildServer(root); err != nil {
			return nil, err
		}
	}
	e.meta = collectMeta(root, e.dataRoot, seed, seconds)
	return e, nil
}

// timedRun is the untraced run: its metrics are the end-to-end ones
// (and, as a by-product, the live per-layer counters).
func (e *env) timedRun(w *workload, seed uint64, window, warmup time.Duration, out io.Writer) (runResult, error) {
	return runLive(w, runOpts{seed: seed, window: window, warmup: warmup, setups: setupRepeats,
		root: e.root, bin: e.bin, dataRoot: e.dataRoot, out: out})
}

// tracedRun produces every per-layer metric: a short live window for
// the counters only a running server has, the tight-loop probes, and
// the span-recording ladder. Layers the workload never reaches report 0.
func (e *env) tracedRun(w *workload, seed uint64, window, warmup time.Duration, out io.Writer) (runResult, error) {
	o := runOpts{seed: seed, window: window, warmup: warmup, setups: 1, trace: true,
		root: e.root, bin: e.bin, dataRoot: e.dataRoot, out: out}
	res, err := runLive(w, o)
	if err != nil {
		return res, err
	}
	coreProbes(w, res.m, probeIters(w))
	lm, attempted, failed, err := runLadder(w, o, e.meta)
	res.attempted += attempted
	res.failed += failed
	for k, v := range lm {
		res.m[k] = v
	}
	return res, err
}

// record turns a run's metrics into the reported set: the end-to-end
// definitions or the per-layer ones, each present exactly once.
func record(w *workload, seed uint64, traced bool, res runResult, runErr error) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Traced: traced, Attempted: max(res.attempted, 1),
		Failed: res.failed, Metrics: map[string]measured{}}
	for _, d := range metricDefs {
		if d.e2e == traced {
			continue
		}
		v := res.m[d.name] // a layer outside the workload's path reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if runErr == nil {
				runErr = fmt.Errorf("bench: %s: metric %s is not finite", w.name, d.name)
			}
			v = 0
		}
		rec.Metrics[d.name] = measured{v, d.unit}
	}
	if runErr != nil && rec.Failed == 0 {
		rec.Failed = 1
	}
	rec.Correct = runErr == nil && rec.Failed == 0
	return rec, runErr
}

// printRecord lists every metric of rec by name with its unit.
func printRecord(out io.Writer, rec runRecord) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "\n%s  seed %d  %s metrics  (attempted %d, failed %d, correct %v)\n",
		rec.Workload, rec.Seed, kind, rec.Attempted, rec.Failed, rec.Correct)
	for _, d := range metricDefs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-40s %16.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the driver's JSON result line")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds      = flag.Int("seconds", 30, "measured window of the timed run, in seconds")
		trace        = flag.String("trace", "", "0: timed run only; 1: traced run only; unset: both")
		runs         = flag.Int("runs", 1, "repeat each run this many times, with seeds seed, seed+1, …")
		outPath      = flag.String("out", "", "write every run, with host metadata, to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args(), os.Stdout))
	}
	if *trace != "" && *trace != "0" && *trace != "1" || *seconds < 1 || *runs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	needServer := false
	for i := range selected {
		needServer = needServer || !selected[i].embedded
	}
	e, err := newEnv(*seed, *seconds, needServer)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("host: %d cpus (GOMAXPROCS %d), %s, %s, linux %s, data on %s, commit %s\n",
		e.meta.NProc, e.meta.GOMAXPROCS, e.meta.CPUModel, e.meta.GoVersion, e.meta.Kernel, e.meta.DataFS, e.meta.GitCommit)

	window := time.Duration(*seconds) * time.Second
	const warmup = 3 * time.Second
	file := outFile{Meta: e.meta}
	var last runRecord
	exit := 0
	for r := 0; r < *runs; r++ {
		for i := range selected {
			w, s := &selected[i], *seed+uint64(r)
			for _, traced := range []bool{false, true} {
				if traced && *trace == "0" || !traced && *trace == "1" {
					continue
				}
				var res runResult
				var err error
				if traced {
					// A quarter of the window is plenty for counters.
					res, err = e.tracedRun(w, s, max(window/4, time.Second), warmup, os.Stdout)
				} else {
					res, err = e.timedRun(w, s, window, warmup, os.Stdout)
				}
				rec, err := record(w, s, traced, res, err)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				if !rec.Correct {
					exit = 1
				}
				printRecord(os.Stdout, rec)
				file.Runs = append(file.Runs, rec)
				last = rec
			}
		}
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit = 1
		}
	}
	if *workloadName != "" && *trace != "" && *runs == 1 {
		// The driver's contract: exactly these four keys, last line.
		line, _ := json.Marshal(struct {
			Correct   bool                `json:"correct"`
			Attempted uint64              `json:"attempted"`
			Failed    uint64              `json:"failed"`
			Metrics   map[string]measured `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		fmt.Printf("%s\n", line)
	}
	os.Exit(exit)
}
