package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"spectm/internal/server"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/tests/bench/hist"
)

// The ladder replays one fixed op stream up a sequence of in-process
// stacks, each adding one layer:
//
//	r1 core       arity-matched short transactions on flat cells
//	r2 shardmap   volatile shardmap.Thread ops
//	r3 wal        shardmap.Open under the workload's fsync policy
//	r4 proto      r3 with commands and replies round-tripped through the codec
//	r5 server     a loopback internal/server at the workload's conns × depth
//	r6 repl       r5 with one replica attached
//
// A layer's self time is its rung's cost minus the rung below's, on the
// identical stream.
var rungLayer = [...]string{1: "core", 2: "shardmap", 3: "wal", 4: "proto", 5: "server", 6: "repl"}

const maxRung = 6

// ---- spans ----

// span is one traced call. Op spans hang under their rung's span, rung
// spans under the workload's; the op index is the identifier the spans
// of one request share across rungs.
type span struct {
	start, end int64 // ns since the tracer's base
	op         int32 // op index; -1 for rung and workload spans
	rung       uint8 // 0 for the workload span
	kind       opKind
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// write emits one JSON object per span, preceded by a metadata record.
func (t *tracer) write(out io.Writer, w *workload, meta hostMeta) error {
	bw := bufio.NewWriterSize(out, 1<<20)
	head, err := json.Marshal(map[string]any{"workload": w.name, "meta": meta})
	if err != nil {
		return err
	}
	bw.Write(append(head, '\n'))
	// Span ids are 1-based positions; the workload span is written
	// first, each rung span before its ops.
	rungID := map[uint8]int{}
	var line []byte
	for i, s := range t.spans {
		id, parent, name := i+1, 0, w.name
		switch {
		case s.rung != 0 && s.op < 0:
			rungID[s.rung], parent = id, 1
			name = "r" + strconv.Itoa(int(s.rung)) + "." + rungLayer[s.rung]
		case s.rung != 0:
			parent = rungID[s.rung]
			name = "r" + strconv.Itoa(int(s.rung)) + "." + opNames[s.kind]
		}
		line = append(line[:0], `{"op_id":`...)
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, `,"span":`...)
		line = strconv.AppendInt(line, int64(id), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		bw.Write(line)
	}
	return bw.Flush()
}

// ---- rungs ----

// rungResult is what one replay of the stream on one rung cost.
type rungResult struct {
	wall    time.Duration
	cpu     time.Duration // this process's CPU (the whole stack is in-process)
	mallocs uint64
	lat     hist.H
	failed  uint64
}

func (r *rungResult) nsPerOp(ops int) float64 { return float64(r.wall) / float64(ops) }

// ladder is one workload's traced run.
type ladder struct {
	w      *workload
	keys   []string
	ops    []op
	writes int // write commands in ops
	tr     tracer
	dir    string
	rungs  [maxRung + 1]rungResult
	bare   rungResult // the top rung replayed again without spans
	failed uint64
	m      metrics
}

// genOps materializes the first n ops of client 0's stream.
func genOps(w *workload, seed uint64, n int) []op {
	var z *zipfian
	if w.zipf {
		z = newZipfian(w.keys, 0.99)
	}
	g := newGen(w, z, seed, 0)
	ops := make([]op, n)
	for i := range ops {
		g.next(&ops[i])
	}
	return ops
}

// measure brackets fn with the clocks and counters a rung reports.
func measure(fn func()) rungResult {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := selfCPU(), time.Now()
	fn()
	r := rungResult{wall: time.Since(t0), cpu: selfCPU().sub(cpu0).total()}
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r
}

// replaySync runs the stream on a synchronous stack, checking every
// reply against the exact model. traced=false skips the two clock reads
// and the span append per op: the difference is the tracing overhead.
func (l *ladder) replaySync(rung int, st stack, m *model, traced bool) rungResult {
	var res result
	var failed uint64
	var lat hist.H
	r := measure(func() {
		for i := range l.ops {
			o := &l.ops[i]
			var old uint64
			if o.kind == opCAS {
				old = m.casOld(o.key)
			}
			if traced {
				t0 := l.tr.now()
				st.do(o, old, &res)
				t1 := l.tr.now()
				l.tr.spans = append(l.tr.spans, span{t0, t1, int32(i), uint8(rung), o.kind})
				lat.Record(t1 - t0)
			} else {
				st.do(o, old, &res)
			}
			if !m.check(o, old, &res) {
				if failed++; failed == 1 {
					fmt.Fprintf(os.Stderr, "bench: %s r%d: op %d (%s key %d) failed its check\n",
						l.w.name, rung, i, opNames[o.kind], o.key)
				}
			}
		}
	})
	r.lat, r.failed = lat, failed
	return r
}

// replayWire runs the stream against addr from one goroutine holding
// the workload's connections: every connection's pipeline is filled and
// flushed, then every connection's replies are read.
func (l *ladder) replayWire(rung int, conns []*wireConn, m *model, traced bool) (rungResult, error) {
	depth := l.w.depth
	olds := make([]uint64, len(l.ops))
	t0s := make([]int64, len(conns))
	var res result
	var failed uint64
	var lat hist.H
	var ioErr error
	r := measure(func() {
		for pos := 0; pos < len(l.ops) && ioErr == nil; {
			first := pos
			for ci, c := range conns {
				for i := pos; i < min(pos+depth, len(l.ops)); i++ {
					if l.ops[i].kind == opCAS {
						olds[i] = m.casOld(l.ops[i].key)
					}
					encodeOp(c.wr, &l.ops[i], olds[i], l.keys)
				}
				pos = min(pos+depth, len(l.ops))
				t0s[ci] = l.tr.now()
				if ioErr = c.flush(); ioErr != nil {
					return
				}
			}
			for ci, c := range conns {
				for i := first + ci*depth; i < min(first+(ci+1)*depth, len(l.ops)); i++ {
					if ioErr = readResult(c.rd, &l.ops[i], &res); ioErr != nil {
						return
					}
					if traced {
						t1 := l.tr.now()
						l.tr.spans = append(l.tr.spans, span{t0s[ci], t1, int32(i), uint8(rung), l.ops[i].kind})
						lat.Record(t1 - t0s[ci])
					}
					if !m.check(&l.ops[i], olds[i], &res) {
						failed++
					}
				}
			}
		}
	})
	r.lat, r.failed = lat, failed
	return r, ioErr
}

// withRungSpan runs fn as rung's span (a child of the workload span).
func (l *ladder) withRungSpan(rung int, fn func() error) error {
	at := len(l.tr.spans)
	l.tr.spans = append(l.tr.spans, span{start: l.tr.now(), op: -1, rung: uint8(rung)})
	err := fn()
	l.tr.spans[at].end = l.tr.now()
	return err
}

// rungPasses is how many times each rung replays the stream; the rung's
// cost is its fastest pass. On two cores with a background log syncer,
// a collector and a hypervisor, single passes of one stack differ by
// more than a thin layer costs, and all of that interference only ever
// adds time — so the minimum is the least contaminated estimate.
const rungPasses = 3

// passes replays the stream rungPasses times through replay. The first
// pass is the rung's span, keeps its op spans, and is followed by
// firstDone (counters that must cover exactly one pass); later passes
// only contribute their clocks. When rung is the workload's top, the
// same number of passes runs again without spans.
func (l *ladder) passes(rung int, replay func(traced bool) (rungResult, error), firstDone func()) error {
	var wall, cpu, bare []float64
	for pass := 0; pass < rungPasses; pass++ {
		mark := len(l.tr.spans)
		var r rungResult
		err := l.withRungSpan(rung, func() (err error) {
			r, err = replay(true)
			return err
		})
		l.failed += r.failed
		if err != nil {
			return err
		}
		if pass == 0 {
			l.rungs[rung] = r
			if firstDone != nil {
				firstDone()
			}
		} else {
			l.tr.spans = l.tr.spans[:mark]
		}
		wall, cpu = append(wall, float64(r.wall)), append(cpu, float64(r.cpu))
	}
	l.rungs[rung].wall, l.rungs[rung].cpu = time.Duration(slices.Min(wall)), time.Duration(slices.Min(cpu))
	for pass := 0; pass < rungPasses && rung == l.w.topRung; pass++ {
		r, err := replay(false)
		l.failed += r.failed
		if err != nil {
			return err
		}
		bare = append(bare, float64(r.wall))
		l.bare = rungResult{wall: time.Duration(slices.Min(bare))}
	}
	return nil
}

// traceRung runs the passes of a synchronous rung.
func (l *ladder) traceRung(rung int, st stack, m *model, firstDone func()) {
	l.passes(rung, func(traced bool) (rungResult, error) {
		return l.replaySync(rung, st, m, traced), nil
	}, firstDone)
}

// volatileRung is r2, and — on the map r2 leaves behind — the codec and
// per-operation probes, which need a preloaded map but not a fresh one.
func (l *ladder) volatileRung() error {
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	ms, err := newMapStack(l.w, l.keys, "", nil)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	l.m["shardmap.bytes_per_key"] = float64(int64(heap1.HeapAlloc)-int64(heap0.HeapAlloc)) / float64(l.w.keys)

	m := newModel(l.w, true)
	l.traceRung(2, ms, m, nil)
	os := ms.th.OpStats()
	l.m["shardmap.snapshot_fallbacks_per_batch"] = ratio(float64(os.SnapshotFallbacks), float64(os.Batches))
	l.m["shardmap.scan_fallbacks_per_scan"] = ratio(float64(os.ScanFallbacks), float64(os.Scans))
	if !l.w.embedded { // embed-mixed reports these from its live, contended run
		cs := ms.th.Thr().Stats
		l.m["core.aborts_per_commit"] = ratio(float64(cs.ShortAborts+cs.Aborts), float64(cs.ShortCommits+cs.Commits))
		l.m["shardmap.conflicts_per_op"] = ratio(float64(os.Conflicts), float64(os.Ops()))
		l.m["shardmap.escalations_per_op"] = ratio(float64(os.Escalations), float64(os.Ops()))
	}
	if l.w.topRung >= 4 {
		l.failed += protoProbes(ms, m, l.ops, l.m)
	}
	shardmapProbes(ms, l.m, probeIters(l.w)/4) // overwrites values: last
	return ms.close()
}

// durableRungs is r3 and then r4 on the same map: sharing it removes
// the map-to-map variation (hash seed, index tower heights) that would
// otherwise drown the codec's few hundred nanoseconds.
func (l *ladder) durableRungs() error {
	var wc walCounters
	dir := filepath.Join(l.dir, "r3")
	ms, err := newMapStack(l.w, l.keys, dir, &wc)
	if err != nil {
		return err
	}
	log := ms.m.Log()
	log.Flush()
	size0, seq0 := log.Size(), log.Seq()
	writes0, syncs0, syncNs0 := wc.writes.Load(), wc.syncs.Load(), wc.syncNs.Load()
	m := newModel(l.w, true)
	l.traceRung(3, ms, m, func() {
		log.Flush()
		wr, syncs := float64(l.writes), float64(wc.syncs.Load()-syncs0)
		l.m["wal.bytes_per_write"] = ratio(float64(log.Size()-size0), wr)
		l.m["wal.records_per_write"] = ratio(float64(log.Seq()-seq0), wr)
		l.m["wal.write_calls_per_write"] = ratio(float64(wc.writes.Load()-writes0), wr)
		l.m["wal.syncs_per_write"] = ratio(syncs, wr)
		l.m["wal.sync_ns"] = ratio(float64(wc.syncNs.Load()-syncNs0), syncs)
		l.m["wal.allocs_per_write"] = ratio(float64(l.rungs[3].mallocs)-float64(l.rungs[2].mallocs), wr)
	})
	if l.w.topRung >= 4 {
		ps := newProtoStack(ms)
		l.traceRung(4, ps, m, func() {
			l.m["proto.bytes_per_cmd"] = float64(ps.cmd.n+ps.rep.n) / float64(len(l.ops))
			l.m["proto.allocs_per_cmd"] = (float64(l.rungs[4].mallocs) - float64(l.rungs[3].mallocs)) / float64(len(l.ops))
		})
	}
	if err := ms.close(); err != nil {
		return err
	}
	return l.replayLog(dir, m)
}

// replayLog times recovery of the directory rung r3 just closed, and
// checks that it brings back exactly the keys the model holds.
func (l *ladder) replayLog(dir string, m *model) error {
	t0 := time.Now()
	rm, err := shardmap.Open(newEngine(l.w), dir, shardmap.WithOrdered())
	if err != nil {
		return fmt.Errorf("bench: recovering %s: %w", dir, err)
	}
	elapsed := time.Since(t0)
	st := rm.RecoveryStats()
	l.m["wal.replay_ns_per_record"] = ratio(float64(elapsed), float64(st.Records))
	present := 0
	for _, v := range m.vals {
		if v != 0 {
			present++
		}
	}
	if rm.Len() != present || st.TruncatedFiles != 0 {
		l.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: recovery holds %d keys (%d truncated files), the model %d\n",
			l.w.name, rm.Len(), st.TruncatedFiles, present)
	}
	return rm.Close()
}

// wireRung runs r5 or r6: in-process servers on loopback sockets.
func (l *ladder) wireRung(rung int) error {
	policy, err := wal.ParsePolicy(l.w.fsync)
	if err != nil {
		return err
	}
	dir := filepath.Join(l.dir, "r"+strconv.Itoa(rung))
	popts := []server.Option{server.WithMaxConns(l.w.engineThreads - 4), server.WithPersistence(filepath.Join(dir, "primary"), policy)}
	if rung == 6 {
		popts = append(popts, server.WithTopology(server.Topology{ReplListen: "127.0.0.1:0"}))
	}
	primary, err := server.New(popts...)
	if err != nil {
		return err
	}
	if err := primary.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	go primary.Serve()
	defer primary.Shutdown()
	if rung == 6 {
		replica, err := server.New(server.WithPersistence(filepath.Join(dir, "replica"), policy),
			server.WithTopology(server.Topology{Primary: primary.ReplAddr().String()}))
		if err != nil {
			return err
		}
		if err := replica.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		go replica.Serve()
		defer replica.Shutdown()
	}
	var conns []*wireConn
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	for i := 0; i < l.w.preloadConns; i++ {
		c, err := dialWire(primary.Addr().String())
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}
	if err := preloadWire(conns, l.keys); err != nil {
		return err
	}
	// Two clients' worth of connections, one generator: replies are
	// checked for shape and key identity, not predicted exactly, since
	// the server may interleave the connections either way.
	m := newModel(l.w, false)
	return l.passes(rung, func(traced bool) (rungResult, error) {
		return l.replayWire(rung, conns[:l.w.conns], m, traced)
	}, nil)
}

// runLadder replays the workload's stream up to its top rung and
// derives the per-layer metrics and the delta table.
func runLadder(w *workload, o runOpts, meta hostMeta) (metrics, uint64, uint64, error) {
	l := &ladder{w: w, keys: makeKeys(w.keys), ops: genOps(w, o.seed, w.traceOps), m: metrics{}}
	for i := range l.ops {
		if l.ops[i].kind.isWrite() {
			l.writes++
		}
	}
	var err error
	if l.dir, err = os.MkdirTemp(o.dataRoot, w.name+"-ladder-"); err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(l.dir)
	l.tr.base = time.Now()
	l.tr.spans = make([]span, 1, 1+w.topRung*(len(l.ops)+1))
	l.tr.spans[0] = span{op: -1}
	for rung := 1; rung <= w.topRung && err == nil; rung++ {
		switch rung {
		case 1:
			l.traceRung(1, newCoreStack(w), newModel(w, true), nil)
		case 2:
			err = l.volatileRung()
		case 3:
			err = l.durableRungs() // r3 and r4
		case 5, 6:
			err = l.wireRung(rung)
		}
	}
	l.tr.spans[0].end = l.tr.now()
	attempted := uint64(len(l.ops) * (w.topRung + 1) * rungPasses)
	if err != nil {
		return l.m, attempted, l.failed + 1, err
	}
	l.deltas(o.out)

	tracePath := filepath.Join(buildDir(o.root), "trace-"+w.name+".jsonl")
	f, err := os.Create(tracePath)
	if err == nil {
		err = l.tr.write(f, w, meta)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		fmt.Fprintf(o.out, "trace: %d spans written to %s\n", len(l.tr.spans), tracePath)
	}
	return l.m, attempted, l.failed, err
}

// deltas prints the ledger — one row per rung, each the cost its layer
// adds over the rung below — and files the self-time metrics. A layer
// whose rung came out cheaper than the one below is "unresolved": the
// difference is inside the noise (or hidden by the rung's added
// concurrency), and is never clamped to zero.
func (l *ladder) deltas(out io.Writer) {
	n, wr := float64(len(l.ops)), float64(l.writes)
	fmt.Fprintf(out, "\nlayer ledger: %s, %d ops (%d writes) per rung\n", l.w.name, len(l.ops), l.writes)
	fmt.Fprintf(out, "%-4s %-9s %12s %12s %12s %12s %10s %10s\n",
		"rung", "layer", "wall ns/op", "self ns/op", "cpu ns/op", "self cpu", "p50 ns", "allocs/op")
	for rung := 1; rung <= l.w.topRung; rung++ {
		r, below := &l.rungs[rung], &l.rungs[rung-1]
		self, selfCPU := r.nsPerOp(len(l.ops)), float64(r.cpu)/n
		if rung > 1 {
			self -= below.nsPerOp(len(l.ops))
			selfCPU -= float64(below.cpu) / n
		}
		cell := func(v float64) string {
			if v < 0 {
				return fmt.Sprintf("unresolved(%.0f)", v)
			}
			return fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(out, "r%-3d %-9s %12.1f %12s %12.1f %12s %10.0f %10.3f\n", rung, rungLayer[rung],
			r.nsPerOp(len(l.ops)), cell(self), float64(r.cpu)/n, cell(selfCPU), r.lat.Quantile(0.5), float64(r.mallocs)/n)
		switch rung {
		case 1:
			l.m["core.ns_per_op"] = self
			l.m["core.allocs_per_op"] = float64(r.mallocs) / n
		case 2:
			l.m["shardmap.ns_per_op"] = r.nsPerOp(len(l.ops))
			l.m["shardmap.self_ns_per_op"] = self
			l.m["shardmap.allocs_per_op"] = float64(r.mallocs) / n
		case 3:
			l.m["wal.self_ns_per_write"] = ratio(self*n, wr)
		case 4:
			l.m["proto.self_ns_per_cmd"] = self
		case 5:
			l.m["server.self_ns_per_op"] = self
		case 6:
			l.m["repl.self_ns_per_write"] = ratio(self*n, wr)
		}
	}
	top := &l.rungs[l.w.topRung]
	l.m["client.trace_overhead_pct"] = 100 * (float64(top.wall) - float64(l.bare.wall)) / float64(l.bare.wall)
	fmt.Fprintf(out, "top rung without spans: %.1f ns/op → tracing overhead %.2f %%\n",
		l.bare.nsPerOp(len(l.ops)), l.m["client.trace_overhead_pct"])
}
