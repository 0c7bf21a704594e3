package main

import (
	"sort"
	"time"

	"spectm/internal/core"
	"spectm/internal/proto"
	"spectm/internal/word"
)

// Probes time one primitive in a tight loop — no spans, no per-call
// clock — so that a per-arity or per-op cost of a few nanoseconds is
// not drowned by the two clock reads a span costs. Each probe runs a
// fixed iteration count three times and reports the median ns/op.

// probe returns the median over three rounds of fn's ns per iteration;
// fn must execute exactly iters iterations.
func probe(iters int, fn func(iters int)) float64 {
	var rounds []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		fn(iters)
		rounds = append(rounds, float64(time.Since(t0))/float64(iters))
	}
	sort.Float64s(rounds)
	return rounds[1]
}

// coreProbes times the short transactions the map's hot paths are built
// from, per arity, plus the full-transaction equivalent of the 2-word
// read — the paper's short-versus-full comparison.
func coreProbes(w *workload, m metrics, iters int) {
	e := newEngine(w)
	t := e.Register()
	const nv = 1024
	vars := make([]core.Var, nv)
	for i := range vars {
		vars[i] = e.NewVar(word.FromUint(uint64(i)))
	}
	v := word.FromUint(7)
	m["core.ro2_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			d, _, _ := t.ShortRO2(vars[i&(nv-1)], vars[(i+1)&(nv-1)])
			d.Valid()
		}
	})
	m["core.ro1rw1_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			ro, _ := t.ShortRO1(vars[i&(nv-1)])
			c, _ := ro.LockRead(vars[(i+1)&(nv-1)])
			c.Commit(v)
		}
	})
	m["core.rw2_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			d, a, b := t.ShortRW2(vars[i&(nv-1)], vars[(i+1)&(nv-1)])
			d.Commit(b, a)
		}
	})
	m["core.ro2rw2_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			d1, _ := t.ShortRO1(vars[i&(nv-1)])
			d2, _ := d1.Extend(vars[(i+1)&(nv-1)])
			w1, a := d2.LockRead(vars[(i+2)&(nv-1)])
			w2, b := w1.LockRead(vars[(i+3)&(nv-1)])
			w2.Commit(b, a)
		}
	})
	m["core.full2_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			t.TxStart()
			t.TxRead(vars[i&(nv-1)])
			t.TxRead(vars[(i+1)&(nv-1)])
			t.TxCommit()
		}
	})
	m["core.short_vs_full"] = m["core.full2_ns"] / m["core.ro2_ns"]
}

// probeIters sizes the tight loops: enough iterations to swamp the
// loop's own clock reads, few enough that the traced run stays short
// on a 260-thread engine, where a short transaction costs over 1 µs.
func probeIters(w *workload) int { return min(100_000, 10*w.traceOps) }

// shardmapProbes times each map operation on ms's volatile map, which
// holds the workload's keys, walking the key space with a stride so
// that consecutive operations touch unrelated buckets. It overwrites
// values with preload values, so nothing may check the map afterwards.
func shardmapProbes(ms *mapStack, m metrics, iters int) {
	keys := ms.keys
	th, mask := ms.th, len(keys)-1
	idx := func(i int) int { return i * 40503 & mask }
	val := func(i int) word.Value { return word.FromUint(valueOf(uint32(idx(i)), preloadTag)) }
	m["shardmap.get_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.Get(keys[idx(i)])
		}
	})
	m["shardmap.update_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.Update(keys[idx(i)], val(i))
		}
	})
	m["shardmap.cas_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.CompareAndSwap(keys[idx(i)], val(i), val(i))
		}
	})
	m["shardmap.swap2_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			th.Swap2(keys[idx(i)], keys[idx(i)^1])
		}
	})
	var sc scratch
	batch := func(width int) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				for j := 0; j < width; j++ {
					sc.keys[j] = keys[idx(i+j*977)]
				}
				th.GetBatch(sc.keys[:width], sc.vals[:width], sc.found[:width])
			}
		}
	}
	m["shardmap.mget2_ns"] = probe(iters/2, batch(2))
	m["shardmap.mget8_ns"] = probe(iters/8, batch(8))
	if ms.m.Ordered() {
		m["shardmap.scan32_ns"] = probe(iters/32, func(n int) {
			for i := 0; i < n; i++ {
				sc.skeys, sc.svals, _ = th.Scan(keys[idx(i)], "", scanLimit, sc.skeys[:0], sc.svals[:0])
			}
		})
	}
	// Delete then re-insert distinct keys. Keys the stream deleted make
	// a Delete miss and the matching Put an insert all the same.
	cycle := min(iters, len(keys))
	var del, ins []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < cycle; i++ {
			th.Delete(keys[idx(i)])
		}
		t1 := time.Now()
		for i := 0; i < cycle; i++ {
			th.Put(keys[idx(i)], val(i))
		}
		del = append(del, float64(t1.Sub(t0))/float64(cycle))
		ins = append(ins, float64(time.Since(t1))/float64(cycle))
	}
	m["shardmap.delete_ns"], m["shardmap.insert_ns"] = median(del), median(ins)
}

// protoProbes times the four codec steps over the workload's own op
// stream, each as one whole-stream loop: commands encoded, commands
// decoded, replies encoded, replies decoded. The replies are those of a
// real, checked pass through rung r4's stack on a volatile map, so
// their sizes are the workload's; model is that map's exact model.
func protoProbes(ms *mapStack, model *model, ops []op, m metrics) (failed uint64) {
	keys := ms.keys
	ps := newProtoStack(ms)
	olds := make([]uint64, len(ops))
	var res result
	var replies memPipe
	tee := proto.NewWriter(&replies)
	for i := range ops {
		o := &ops[i]
		if o.kind == opCAS {
			olds[i] = model.casOld(o.key)
		}
		ps.do(o, olds[i], &res)
		if !model.check(o, olds[i], &res) {
			failed++
		}
		encodeResult(tee, o, &res, keys)
	}
	tee.Flush()
	replyBytes := replies.buf

	n := float64(len(ops))
	var cmds memPipe
	cw := proto.NewWriter(&cmds)
	m["proto.encode_cmd_ns"] = probe(1, func(int) {
		cmds = memPipe{buf: cmds.buf[:0]}
		for i := range ops {
			encodeOp(cw, &ops[i], olds[i], keys)
		}
		cw.Flush()
	}) / n
	cmdBytes := append([]byte(nil), cmds.buf...)
	m["proto.decode_cmd_ns"] = probe(1, func(int) {
		rd := proto.NewReader(&memPipe{buf: cmdBytes})
		for range ops {
			if _, err := rd.Next(); err != nil {
				panic("bench: proto probe: " + err.Error())
			}
		}
	}) / n
	decode := probe(1, func(int) {
		rd := proto.NewReader(&memPipe{buf: replyBytes})
		for i := range ops {
			if err := readResult(rd, &ops[i], &res); err != nil {
				panic("bench: proto probe: " + err.Error())
			}
		}
	}) / n
	m["proto.decode_reply_ns"] = decode
	// Encoding needs decoded replies to encode, so it is timed as a
	// decode-and-re-encode loop minus the decode loop above.
	var sink memPipe
	sw := proto.NewWriter(&sink)
	both := probe(1, func(int) {
		rd := proto.NewReader(&memPipe{buf: replyBytes})
		sink = memPipe{buf: sink.buf[:0]}
		for i := range ops {
			if err := readResult(rd, &ops[i], &res); err != nil {
				panic("bench: proto probe: " + err.Error())
			}
			encodeResult(sw, &ops[i], &res, keys)
		}
		sw.Flush()
	}) / n
	m["proto.encode_reply_ns"] = both - decode
	return failed
}

// encodeResult writes res back out as the reply the server would send.
func encodeResult(wr *proto.Writer, o *op, res *result, keys []string) {
	switch o.kind {
	case opGet:
		if res.n == 1 {
			wr.Uint(res.vals[0])
		} else {
			wr.Null()
		}
	case opSet:
		wr.SimpleString("OK")
	case opDel, opCAS, opSwap2:
		if res.ok {
			wr.Int(1)
		} else {
			wr.Int(0)
		}
	case opMGet2, opMGet8:
		wr.Array(res.n)
		for i := 0; i < res.n; i++ {
			if res.found[i] {
				wr.Uint(res.vals[i])
			} else {
				wr.Null()
			}
		}
	case opScan:
		wr.Array(2 * res.n)
		for i := 0; i < res.n; i++ {
			wr.BulkString(keys[res.keys[i]])
			wr.Uint(res.vals[i])
		}
	}
}
