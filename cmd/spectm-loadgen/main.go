// Command spectm-loadgen drives a spectm-server with closed-loop
// pipelined key-value traffic and reports client-observed throughput.
//
// Usage:
//
//	spectm-loadgen -addr 127.0.0.1:6399 -conns 8 -pipeline 16 -duration 10s
//	spectm-loadgen -selfserve -conns 4 -duration 2s
//
// The connection dial retries for a few seconds, so starting the server
// and the load generator simultaneously (as CI does) is safe.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spectm/internal/harness"
	"spectm/internal/server"
)

// parseMix parses "get,set,del,cas,swap2,mget[,scan]" percentages; the
// scan share may be omitted (0).
func parseMix(s string) ([7]int, error) {
	var mix [7]int
	parts := strings.Split(s, ",")
	if len(parts) != 6 && len(parts) != 7 {
		return mix, fmt.Errorf("mix %q: want 6 or 7 comma-separated percentages (get,set,del,cas,swap2,mget[,scan])", s)
	}
	sum := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return mix, fmt.Errorf("mix %q: bad percentage %q", s, p)
		}
		mix[i] = n
		sum += n
	}
	if sum != 100 {
		return mix, fmt.Errorf("mix %q sums to %d, want 100", s, sum)
	}
	return mix, nil
}

// checkCounts rejects count flags below 1: the harness would read 0 as
// its default and cannot size anything negative.
func checkCounts(conns, pipeline, keys, scanLim int) error {
	for _, f := range []struct {
		name string
		n    int
	}{{"conns", conns}, {"pipeline", pipeline}, {"keys", keys}, {"scanlimit", scanLim}} {
		if f.n < 1 {
			return fmt.Errorf("-%s %d: want at least 1", f.name, f.n)
		}
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", "", "server address (required unless -selfserve)")
		selfserve = flag.Bool("selfserve", false, "start an in-process spectm-server on a loopback port and drive it")
		conns     = flag.Int("conns", 4, "concurrent connections")
		pipeline  = flag.Int("pipeline", 16, "commands in flight per connection")
		keys      = flag.Int("keys", 16384, "distinct key population (preloaded before measuring)")
		duration  = flag.Duration("duration", 5*time.Second, "measurement time")
		dist      = flag.String("dist", "uniform", "key distribution: uniform or zipf")
		mixFlag   = flag.String("mix", "70,20,3,3,2,2", "op mix percentages get,set,del,cas,swap2,mget[,scan] (sum 100)")
		scanLim   = flag.Int("scanlimit", 32, "SCAN result limit")
		seed      = flag.Uint64("seed", 0, "workload seed (0 = default)")
	)
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err == nil {
		err = checkCounts(*conns, *pipeline, *keys, *scanLim)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectm-loadgen: %v\n", err)
		os.Exit(2)
	}
	if *addr == "" && !*selfserve {
		fmt.Fprintf(os.Stderr, "spectm-loadgen: -addr is required (or use -selfserve)\n")
		os.Exit(2)
	}

	target := *addr
	if *selfserve {
		srv, err := server.New(server.WithMaxConns(*conns + 2))
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectm-loadgen: %v\n", err)
			os.Exit(1)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			fmt.Fprintf(os.Stderr, "spectm-loadgen: %v\n", err)
			os.Exit(1)
		}
		go srv.Serve()
		defer srv.Shutdown()
		target = srv.Addr().String()
		fmt.Printf("self-serving on %s\n", target)
	}

	res, err := harness.RunNet(harness.NetWorkload{
		Addr:  target,
		Conns: *conns, Pipeline: *pipeline, Keys: *keys,
		GetPct: mix[0], SetPct: mix[1], DelPct: mix[2],
		CASPct: mix[3], SwapPct: mix[4], MGetPct: mix[5],
		ScanPct: mix[6], ScanLim: *scanLim,
		Dist: *dist, Duration: *duration, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spectm-loadgen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("target            %s\n", target)
	fmt.Printf("conns × pipeline  %d × %d\n", *conns, *pipeline)
	fmt.Printf("mix get/set/del/cas/swap2/mget/scan  %d/%d/%d/%d/%d/%d/%d  dist %s\n",
		mix[0], mix[1], mix[2], mix[3], mix[4], mix[5], mix[6], *dist)
	fmt.Printf("ops               %d in %v\n", res.Ops, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput        %.0f ops/s\n", res.OpsPerSec)
	fmt.Printf("client allocs/op  %.3f\n", res.AllocsPerOp)
	fmt.Printf("per command       get %d  set %d  del %d  cas %d  swap2 %d  mget %d  scan %d\n",
		res.Gets, res.Sets, res.Dels, res.CASes, res.Swaps, res.MGets, res.Scans)
	fmt.Printf("errors            %d\n", res.Errors)
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "spectm-loadgen: %d errors during run\n", res.Errors)
		os.Exit(1)
	}
}
