package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"spectm"
	"spectm/tests/bench/hist"
)

// A timed run sets the system up from nothing, again and again until
// the set-ups have taken setupBudget together or number setupRepeats
// (setup_s is their median: a 50 ms set-up needs the repeats to be
// steady, a 12 s one does not and could not afford them), keeps the last
// instance, warms it and measures one window on it, cut into slices of
// one second. Every other end-to-end metric is computed slice by slice
// and reported at the best decile of its slice values (sustained): what
// this one instance does in the seconds the host leaves it alone. The
// host's interference only ever slows a slice, comes in bursts of
// seconds to a minute, and is the largest thing in the numbers (README,
// "Steadiness"); a cost the code adds to every second moves every
// slice, the best ones too. What the code does to a minority of seconds
// shows in the printed slices and in client.latency_p99_us, _p999_us
// and _max_us, which cover the whole window.
const (
	setupRepeats = 5
	setupBudget  = 4.0 // seconds
)

// metrics maps a metric name (see metricDefs) to its measured value.
type metrics map[string]float64

// runOpts parametrizes one run of one workload.
type runOpts struct {
	seed     uint64
	window   time.Duration
	warmup   time.Duration // capped at a fifth of the window
	setups   int           // most systems set up, one after the other; the last is measured
	trace    bool          // also take the per-layer probes that cost run time
	root     string        // checkout root
	bin      string        // spectm-server binary
	dataRoot string        // parent of every data directory
	out      io.Writer     // human-readable progress: slices, ledger
}

// runResult is what one run hands back to main.
type runResult struct {
	m         metrics
	attempted uint64
	failed    uint64
}

func makeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyString(i)
	}
	return keys
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return math.NaN()
}

// sustained is the value at the best decile of xs, one value per slice:
// the third best of a 30 s window's thirty, the best of ten or fewer.
func sustained(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) - 1) / 10
	if higherIsBetter {
		k = len(s) - 1 - k
	}
	return s[k]
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- clients ----

type sliceStat struct {
	h   hist.H
	ops uint64
}

// client is one closed-loop caller: a connection (or goroutine, when
// embedded) that waits for its replies before sending more.
type client struct {
	w    *workload
	g    *gen
	m    *model
	keys []string

	slices    []sliceStat // one per slice of the window
	attempted uint64      // commands sent inside the window
	failed    uint64      // failures at any time, warm-up included
	err       error       // what ended the client early, if anything
}

// window is the timing of one run, in nanoseconds since base.
type window struct {
	base       time.Time
	start, end int64
	n          int   // slices: one per whole second of the window
	sliceLen   int64 // the CPU clocks of a child tick at 10 ms: a second resolves them to 1 %
}

// sliceCount is the number of slices a window is cut into.
func sliceCount(length time.Duration) int { return max(1, int(length/time.Second)) }

func newWindow(warmup, length time.Duration) window {
	n := sliceCount(length)
	return window{base: time.Now(), start: int64(warmup), end: int64(warmup + length),
		n: n, sliceLen: int64(length) / int64(n)}
}

func (w *window) now() int64 { return int64(time.Since(w.base)) }

// slice returns the slice a time falls in, -1 during warm-up.
func (w *window) slice(t int64) int {
	if t < w.start {
		return -1
	}
	return min(int((t-w.start)/w.sliceLen), w.n-1)
}

// runWire drives one connection: fill the pipeline, flush, read every
// reply. A command's latency runs from the flush's start to the moment
// its own reply is parsed.
func (cl *client) runWire(c *wireConn, win *window) {
	batch := make([]op, cl.w.depth)
	olds := make([]uint64, cl.w.depth)
	var res result
	for win.now() < win.end {
		for i := range batch {
			o := &batch[i]
			cl.g.next(o)
			if o.kind == opCAS {
				olds[i] = cl.m.casOld(o.key)
			}
			encodeOp(c.wr, o, olds[i], cl.keys)
		}
		t0 := win.now()
		s := win.slice(t0)
		if s >= 0 {
			cl.attempted += uint64(len(batch))
		}
		if cl.err = c.flush(); cl.err != nil {
			cl.failed += uint64(len(batch))
			return
		}
		for i := range batch {
			if cl.err = readResult(c.rd, &batch[i], &res); cl.err != nil {
				cl.failed += uint64(len(batch) - i) // unanswered: the server died or timed out
				return
			}
			lat := win.now() - t0
			if !cl.m.check(&batch[i], olds[i], &res) {
				cl.failed++
			}
			if s >= 0 {
				cl.slices[s].h.Record(lat)
				cl.slices[s].ops++
			}
		}
	}
}

// runEmbedded drives one goroutine's MapThread through the public
// spectm.Map API; latency is the call's duration.
func (cl *client) runEmbedded(th *spectm.MapThread, win *window) {
	var o op
	var res result
	var sc scratch
	for {
		cl.g.next(&o)
		var old uint64
		if o.kind == opCAS {
			old = cl.m.casOld(o.key)
		}
		t0 := win.now()
		if t0 >= win.end {
			return
		}
		mapDo(th, &o, old, cl.keys, true, &sc, &res)
		lat := win.now() - t0
		if !cl.m.check(&o, old, &res) {
			cl.failed++
		}
		if s := win.slice(t0); s >= 0 {
			cl.attempted++
			cl.slices[s].h.Record(lat)
			cl.slices[s].ops++
		}
	}
}

// ---- window sampling ----

// sample is what the sampler reads at a slice boundary.
type sample struct {
	sut  cpuTimes // CPU of the system under test
	self cpuTimes // CPU of this process
}

// sampleWindow sleeps to each slice boundary and reads the CPU clocks
// there: win.n+1 samples. pids empty means the SUT is this process.
func sampleWindow(win *window, pids []int) []sample {
	out := make([]sample, win.n+1)
	for i := range out {
		time.Sleep(time.Until(win.base.Add(time.Duration(win.start + int64(i)*win.sliceLen))))
		out[i].self = selfCPU()
		if len(pids) == 0 {
			out[i].sut = out[i].self
		} else {
			out[i].sut = procsCPU(pids)
		}
	}
	return out
}

// ---- the run ----

// liveSUT is a run's system under test, set up and still running.
type liveSUT struct {
	sut *wireSUT     // nil when embedded
	emb *embeddedSUT // nil on the wire
}

// setUp builds the workload's system from nothing, every key preloaded,
// and reports how long that took: one setup_s sample.
func setUp(w *workload, o runOpts, keys []string) (s liveSUT, seconds float64, err error) {
	t0 := time.Now()
	if w.embedded {
		s.emb = startEmbedded(w, keys)
	} else if s.sut, err = startWire(w, o.bin, o.dataRoot, keys); err != nil {
		return s, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// stop tears the system down (a no-op for the zero value and embedded).
func (s *liveSUT) stop() {
	if s.sut != nil {
		s.sut.stop()
		s.sut = nil
	}
}

// replSample is what the lag sampler reads off the primary's REPLSTATUS.
type replSample struct {
	lag              []float64
	sentBytes0, pos0 uint64
}

// runLive sets the workload's system up, measures one window on it and
// reports every metric a live system yields: the end-to-end ones and
// the server/repl/client per-layer ones.
func runLive(w *workload, o runOpts) (res runResult, err error) {
	res.m = metrics{}
	m := res.m
	keys := makeKeys(w.keys)
	var z *zipfian
	if w.zipf {
		z = newZipfian(w.keys, 0.99)
	}
	nSlices := sliceCount(o.window)
	var clients []*client
	for i := 0; i < w.conns; i++ {
		clients = append(clients, &client{w: w, g: newGen(w, z, o.seed, i), m: newModel(w, false), keys: keys,
			slices: make([]sliceStat, nSlices)})
	}

	var s liveSUT
	defer func() { s.stop() }()
	var setups []float64
	for spent := 0.0; len(setups) == 0 || (len(setups) < o.setups && spent < setupBudget); {
		s.stop()
		var sec float64
		if s, sec, err = setUp(w, o, keys); err != nil {
			return res, err
		}
		setups = append(setups, sec)
		spent += sec
	}
	sut, emb := s.sut, s.emb
	var pids []int
	var before map[string]uint64
	if sut != nil {
		pids = sut.pids()
		if before, err = sut.ctl.stats("STATS"); err != nil {
			return res, err
		}
	}

	warmup := min(o.warmup, o.window/5)
	win := newWindow(warmup, o.window)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			if w.embedded {
				cl.runEmbedded(emb.ths[i], &win)
			} else {
				cl.runWire(sut.conns[i], &win)
			}
		}(i, cl)
	}
	var samples []sample
	var ms0, ms1 runtime.MemStats
	var ctxsw uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(win.base.Add(warmup)))
		runtime.ReadMemStats(&ms0)
		if sut != nil {
			ctxsw = voluntaryCtxSw(pids[0])
		}
		samples = sampleWindow(&win, pids)
		runtime.ReadMemStats(&ms1)
		if sut != nil {
			ctxsw = voluntaryCtxSw(pids[0]) - ctxsw
		}
	}()
	var repl replSample
	if sut != nil && sut.replica != nil {
		// Replication lag, sampled through the window on the control
		// connection (which nothing else uses meanwhile).
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(win.base.Add(warmup)))
			for first := true; win.now() < win.end; first = false {
				if st, err := sut.ctl.stats("REPLSTATUS"); err == nil {
					if first {
						repl.sentBytes0, repl.pos0 = st["replica0.sent_bytes"], st["position_records"]
					}
					repl.lag = append(repl.lag, float64(st["replica0.lag_records"]))
				}
				time.Sleep(min(time.Second, o.window/4))
			}
		}()
	}
	wg.Wait()

	sliceOps := make([]float64, nSlices)
	sliceHist := make([]hist.H, nSlices)
	var all hist.H // every latency sample of the window
	for _, cl := range clients {
		res.attempted += cl.attempted
		res.failed += cl.failed
		if cl.err != nil {
			err = fmt.Errorf("bench: %s: client stopped early: %w", w.name, cl.err)
		}
		for i := range cl.slices {
			sliceHist[i].Merge(&cl.slices[i].h)
			all.Merge(&cl.slices[i].h)
			sliceOps[i] += float64(cl.slices[i].ops)
		}
	}
	ops := float64(all.Count())
	if sut != nil && !sut.alive() {
		err = fmt.Errorf("bench: %s: the server died mid-run:\n%s\n%s", w.name,
			sut.primary.stderrTail(), sut.replica.stderrTail())
	}
	if ops == 0 && err == nil {
		err = fmt.Errorf("bench: %s: no command completed inside the window", w.name)
	}
	if err != nil {
		return res, err
	}

	sliceSec := float64(win.sliceLen) / 1e9
	var thr, p50, p95, cpu []float64
	for i := 0; i < nSlices; i++ {
		if sliceOps[i] == 0 {
			continue
		}
		thr = append(thr, sliceOps[i]/sliceSec)
		p50 = append(p50, sliceHist[i].Quantile(0.50)/1e3)
		p95 = append(p95, sliceHist[i].Quantile(0.95)/1e3)
		d := samples[i+1].sut.sub(samples[i].sut)
		cpu = append(cpu, float64(d.total())/1e3/sliceOps[i])
	}
	// The slices themselves, so a reader can see how steady the window was.
	fmt.Fprintf(o.out, "%s slices: ops/s %.0f\n  p50 us %.4g\n  p95 us %.4g\n  cpu us/op %.4g\n  setup s %.4g\n",
		w.name, thr, p50, p95, cpu, setups)
	m["throughput_ops_s"] = sustained(thr, true)
	m["latency_p50_us"] = sustained(p50, false)
	m["latency_p95_us"] = sustained(p95, false)
	m["cpu_us_per_op"] = sustained(cpu, false)
	m["setup_s"] = median(setups)

	// The generator's own cost and the tail the gated metrics leave out.
	sutCPU := samples[nSlices].sut.sub(samples[0].sut)
	m["client.latency_p99_us"] = all.Quantile(0.99) / 1e3
	m["client.latency_p999_us"] = all.Quantile(0.999) / 1e3
	m["client.latency_max_us"] = float64(all.Max()) / 1e3
	m["client.latency_samples"] = ops
	m["client.ops_attempted"] = float64(res.attempted)
	m["client.failed_ops_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	m["client.cpu_us_per_op"] = float64(samples[nSlices].self.sub(samples[0].self).total()) / 1e3 / ops
	m["client.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops

	if w.embedded {
		emb.liveMetrics(m)
		return res, nil
	}

	// Server-side counters (warm-up included on both sides of each ratio).
	after, err := sut.ctl.stats("STATS")
	if err != nil {
		return res, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	writes := delta("updates") + delta("deletes") + delta("cas") + delta("swap2")
	m["server.sys_cpu_us_per_op"] = float64(sutCPU.sys) / 1e3 / ops
	m["server.voluntary_ctxsw_per_op"] = float64(ctxsw) / ops
	m["server.rss_mb"] = peakRSSMB(pids[0])
	m["server.conflicts_per_op"] = ratio(delta("conflicts"), delta("ops"))
	m["server.affinity_swaps"] = delta("affinity_swaps")
	m["server.refused"] = delta("refused")
	m["server.wal_bytes_per_write"] = ratio(delta("wal_bytes"), writes)

	if sut.replica != nil {
		catchup, err := sut.catchUp()
		if err != nil {
			return res, err
		}
		st, err := sut.ctl.stats("REPLSTATUS")
		if err != nil {
			return res, err
		}
		m["repl.catchup_s"] = catchup.Seconds()
		m["repl.lag_records_p50"] = median(repl.lag)
		m["repl.lag_records_max"] = 0
		for _, l := range repl.lag {
			m["repl.lag_records_max"] = max(m["repl.lag_records_max"], l)
		}
		// Records shipped ≈ write commands that hit, counted by the
		// primary's own position.
		m["repl.sent_bytes_per_write"] = ratio(float64(st["replica0.sent_bytes"]-repl.sentBytes0),
			float64(st["position_records"]-repl.pos0))
		m["repl.full_syncs"] = float64(st["full_syncs"])
	}
	if o.trace {
		rr, failed, err := roundTripProbe(sut.conns[0], w, keys, min(2*time.Second, o.window/2))
		res.failed += failed
		if err != nil {
			return res, err
		}
		m["server.rr_p50_us"] = rr
	}
	if !sut.alive() {
		return res, fmt.Errorf("bench: %s: the server died after the window:\n%s", w.name, sut.primary.stderrTail())
	}
	return res, nil
}

// roundTripProbe measures the unpipelined round trip: depth-1 GETs for
// d on one connection, median in µs. Pipelining can buy throughput by
// delaying single replies; this is the guard that shows it.
func roundTripProbe(c *wireConn, w *workload, keys []string, d time.Duration) (p50 float64, failed uint64, err error) {
	var h hist.H
	var res result
	m := newModel(w, false)
	r := rngState(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		o := op{kind: opGet, key: uint32(r.next()) & uint32(w.keys-1)}
		encodeOp(c.wr, &o, 0, keys)
		t0 := time.Now()
		if err := c.flush(); err != nil {
			return 0, failed + 1, err
		}
		if err := readResult(c.rd, &o, &res); err != nil {
			return 0, failed + 1, err
		}
		h.Record(int64(time.Since(t0)))
		if !m.check(&o, 0, &res) {
			failed++
		}
	}
	return h.Quantile(0.5) / 1e3, failed, nil
}
