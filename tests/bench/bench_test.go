package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the code each list the workloads and metrics; this
// keeps the two lists identical.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, w := range bj.Workloads {
		listed[w.Name] = w.Why
	}
	for _, w := range workloads {
		why, ok := listed[w.name]
		if ok == (w.ungated != "") || (ok && why != w.why) {
			t.Errorf("workload %s: in BENCHMARK.json=%v with why %q; code says ungated=%q, why %q", w.name, ok, why, w.ungated, w.why)
		}
		delete(listed, w.name)
	}
	if len(listed) != 0 {
		t.Errorf("BENCHMARK.json lists workloads the code lacks: %v", listed)
	}
	type row struct{ name, unit, better string }
	var fromJSON, fromCode [2][]row
	hasSetup := false
	for _, m := range bj.EndToEnd {
		fromJSON[0] = append(fromJSON[0], row{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range bj.PerLayer {
		fromJSON[1] = append(fromJSON[1], row{m.Name, m.Unit, m.Better})
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		i := 1
		if d.e2e {
			i = 0
		}
		fromCode[i] = append(fromCode[i], row{d.name, d.unit, d.better})
	}
	if !reflect.DeepEqual(fromJSON, fromCode) {
		t.Errorf("BENCHMARK.json metrics differ from metricDefs:\n json %v\n code %v", fromJSON, fromCode)
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s (s, lower)")
	}
}

// One seed gives one op stream, byte for byte; another seed another.
func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(4096, 5000)
		a, b, c := genOps(&w, 7, w.traceOps), genOps(&w, 7, w.traceOps), genOps(&w, 8, w.traceOps)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		var kinds [nOpKinds]int
		for _, o := range a {
			kinds[o.kind]++
			if int(o.key) >= w.keys {
				t.Fatalf("%s: key %d outside the population %d", w.name, o.key, w.keys)
			}
		}
		for k := opKind(0); k < nOpKinds; k++ {
			if w.has(k) != (kinds[k] > 0) {
				t.Errorf("%s: %s appears %d times, mix says has=%v", w.name, opNames[k], kinds[k], w.has(k))
			}
		}
	}
}

func TestKeyStringRoundTrips(t *testing.T) {
	for _, i := range []int{0, 9, 10, 65535, 1<<20 - 1} {
		s := keyString(i)
		if got, ok := keyIndex([]byte(s)); len(s) != 16 || !ok || got != i {
			t.Errorf("keyString(%d) = %q → %d %v", i, s, got, ok)
		}
	}
	if keyString(9) >= keyString(10) {
		t.Error("key order is not numeric order")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for the same inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// checkRecord asserts that printing rec lists every metric of its kind
// exactly once, finite, and that nothing failed.
func checkRecord(t *testing.T, rec runRecord, err error) {
	t.Helper()
	if err != nil || !rec.Correct || rec.Failed != 0 {
		t.Fatalf("%s traced=%v: err=%v correct=%v failed=%d", rec.Workload, rec.Traced, err, rec.Correct, rec.Failed)
	}
	var buf bytes.Buffer
	printRecord(&buf, rec)
	printed := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(line, "  ") {
			printed[f[0]]++
		}
	}
	for _, d := range metricDefs {
		want := 0
		if d.e2e != rec.Traced {
			want = 1
		}
		if printed[d.name] != want {
			t.Errorf("%s traced=%v: %s printed %d times, want %d", rec.Workload, rec.Traced, d.name, printed[d.name], want)
		}
		if m, ok := rec.Metrics[d.name]; ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit) {
			t.Errorf("%s: %s = %v %q", rec.Workload, d.name, m.Value, m.Unit)
		}
	}
	if !rec.Traced {
		for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p95_us", "cpu_us_per_op", "setup_s"} {
			if rec.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", rec.Workload, name, rec.Metrics[name].Value)
			}
		}
	}
}

// The smoke run: every workload, scaled down, for one second, then its
// traced run on a short stream. -short keeps only the embedded workload
// (no server build, no processes).
func TestSmoke(t *testing.T) {
	e, err := newEnv(1, 1, !testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range workloads {
		if testing.Short() && !full.embedded {
			continue
		}
		traceOps := 2000
		if full.fsync == "always" {
			traceOps = 300 // every write waits for the disk
		}
		w := full.scaled(1024, traceOps)
		t.Run(w.name, func(t *testing.T) {
			res, err := e.timedRun(&w, 1, time.Second, 100*time.Millisecond, io.Discard)
			rec, err := record(&w, 1, false, res, err)
			checkRecord(t, rec, err)

			res, err = e.tracedRun(&w, 1, 500*time.Millisecond, 100*time.Millisecond, io.Discard)
			rec, err = record(&w, 1, true, res, err)
			checkRecord(t, rec, err)

			// Counts made on the single-client rungs repeat exactly.
			// SWAP2 is exempt by nature: whether its two keys share a
			// shard (one log record or two) hangs on the map's random
			// hash seed.
			if w.topRung < 4 || w.has(opSwap2) {
				return
			}
			again := w
			again.topRung = 4
			lm, _, failed, err := runLadder(&again, runOpts{seed: 1, root: e.root, dataRoot: e.dataRoot, out: io.Discard}, e.meta)
			if err != nil || failed != 0 {
				t.Fatalf("second ladder: err=%v failed=%d", err, failed)
			}
			for _, name := range []string{"wal.bytes_per_write", "wal.records_per_write", "proto.bytes_per_cmd"} {
				if lm[name] != rec.Metrics[name].Value || lm[name] == 0 {
					t.Errorf("%s: %v then %v: counts must repeat exactly and be non-zero", name, rec.Metrics[name].Value, lm[name])
				}
			}
		})
	}
}

// serverChild returns the pid of a spectm-server this process spawned,
// 0 while there is none.
func serverChild() int {
	comms, _ := filepath.Glob("/proc/[0-9]*/comm")
	for _, c := range comms {
		dir := filepath.Dir(c)
		if b, err := os.ReadFile(c); err != nil || strings.TrimSpace(string(b)) != "spectm-server" {
			continue
		}
		if ppid, ok := statusField(filepath.Join(dir, "status"), "PPid"); ok && int(ppid) == os.Getpid() {
			pid, _ := strconv.Atoi(filepath.Base(dir))
			return pid
		}
	}
	return 0
}

// A server killed in the middle of the window must end the run — not
// hang it — with the unanswered commands counted as failed and the
// record marked incorrect.
func TestServerCrashFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns spectm-server")
	}
	e, err := newEnv(1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	w := findWorkload("wire-read").scaled(1024, 0)
	killed := make(chan int, 1)
	go func() {
		pid := 0
		for deadline := time.Now().Add(ioTimeout); pid == 0 && time.Now().Before(deadline); pid = serverChild() {
			time.Sleep(10 * time.Millisecond)
		}
		if pid != 0 {
			time.Sleep(time.Second) // set-up and warm-up take ≈0.2 s; the window ends after 2.1 s
			syscall.Kill(pid, syscall.SIGKILL)
		}
		killed <- pid
	}()
	t0 := time.Now()
	res, err := runLive(&w, runOpts{seed: 1, window: 2 * time.Second, warmup: 100 * time.Millisecond, setups: 1,
		root: e.root, bin: e.bin, dataRoot: e.dataRoot, out: io.Discard})
	if pid := <-killed; pid == 0 {
		t.Fatal("no spectm-server child appeared")
	}
	if took := time.Since(t0); took >= ioTimeout {
		t.Errorf("the run took %v: it waited out a read deadline instead of noticing the exit", took)
	}
	if err == nil || res.attempted == 0 || res.failed == 0 {
		t.Errorf("err=%v attempted=%d failed=%d: want an error and unanswered commands counted inside the window", err, res.attempted, res.failed)
	}
	rec, _ := record(&w, 1, false, res, err)
	if rec.Correct || rec.Failed == 0 {
		t.Errorf("record: correct=%v failed=%d, want incorrect with failures", rec.Correct, rec.Failed)
	}
}
