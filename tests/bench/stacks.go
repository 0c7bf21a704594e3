package main

import (
	"sync"
	"sync/atomic"
	"time"

	"spectm"
	"spectm/internal/core"
	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// A stack is one rung of the ladder below the socket: it executes an op
// synchronously and fills in the reply. Each rung adds one layer to the
// one before it and reaches that layer only through public functions.
type stack interface {
	do(o *op, old uint64, res *result)
	close() error
}

// newEngine builds the engine a ladder rung runs on: the val layout
// with commit counters, sized like the engine of the workload's live
// system. The size matters: validating a short read sums one commit
// counter per possible thread, so a ShortRO2 costs ~60 ns on a 5-thread
// engine and ~1.4 µs on spectm-server's 260 (README, "First ledger").
func newEngine(w *workload) *core.Engine {
	return core.New(core.Config{Layout: core.LayoutVal, MaxThreads: w.engineThreads})
}

// ---- r1: core short transactions on flat cells ----

// coreStack is a toy store — one (link, value) cell pair per key in two
// flat arrays — that runs, for every command, the short transaction of
// the same arity shardmap runs for it, with no hashing, chains, arena
// or index around it. The link cell's mark bit means "absent".
type coreStack struct {
	t    *core.Thr
	link []core.Var
	val  []core.Var
	n    int
}

func newCoreStack(w *workload) *coreStack {
	e := newEngine(w)
	s := &coreStack{t: e.Register(), n: w.keys}
	links, vals := make([]core.Cell, w.keys), make([]core.Cell, w.keys)
	s.link, s.val = make([]core.Var, w.keys), make([]core.Var, w.keys)
	for i := range links {
		links[i].Init(word.FromUint(0))
		vals[i].Init(word.FromUint(valueOf(uint32(i), preloadTag)))
		s.link[i] = e.VarOf(&links[i], uint64(2*i))
		s.val[i] = e.VarOf(&vals[i], uint64(2*i+1))
	}
	return s
}

func (s *coreStack) close() error { return nil }

// get is Get's ShortRO2 over (link, value).
func (s *coreStack) get(k uint32) (uint64, bool) {
	for {
		d, lv, vv := s.t.ShortRO2(s.link[k], s.val[k])
		if d.Valid() {
			return vv.Uint(), !lv.Marked()
		}
	}
}

func (s *coreStack) do(o *op, old uint64, res *result) {
	*res = result{}
	t, k := s.t, o.key
	switch o.kind {
	case opGet:
		if v, ok := s.get(k); ok {
			res.n, res.vals[0] = 1, v
		}
	case opSet:
		// Update: ShortRO1 + LockRead → RO1RW1. Insert (absent key):
		// one 2-location read-write transaction standing in for the
		// chain walk + SingleCAS.
		ro, lv := t.ShortRO1(s.link[k])
		if !lv.Marked() {
			c, _ := ro.LockRead(s.val[k])
			res.ok = c.Commit(word.FromUint(o.val))
		} else {
			ro.Discard()
			d, lv, _ := t.ShortRW2(s.link[k], s.val[k])
			d.Commit(lv.WithoutMark(), word.FromUint(o.val))
			res.ok = true
		}
	case opDel:
		d, lv, vv := t.ShortRW2(s.link[k], s.val[k])
		if lv.Marked() {
			d.Abort()
		} else {
			d.Commit(lv.WithMark(), vv)
			res.ok = true
		}
	case opCAS:
		d1, lv := t.ShortRO1(s.link[k])
		d2, vv := d1.Extend(s.val[k])
		if lv.Marked() || vv != word.FromUint(old) {
			d2.Discard()
		} else if c, up := d2.Upgrade2(); up {
			res.ok = c.Commit(word.FromUint(o.val))
		}
	case opSwap2:
		a, b := k, k^1
		d1, l1 := t.ShortRO1(s.link[a])
		d2, l2 := d1.Extend(s.link[b])
		if l1.Marked() || l2.Marked() {
			d2.Discard()
		} else {
			w1, v1 := d2.LockRead(s.val[a])
			w2, v2 := w1.LockRead(s.val[b])
			res.ok = w2.Commit(v2, v1)
		}
	case opMGet2:
		b := o.mgetKey(1, s.n)
		d, l1, v1, l2, v2 := t.ShortRO4(s.link[k], s.val[k], s.link[b], s.val[b])
		d.Valid()
		res.n = 2
		res.vals[0], res.found[0] = v1.Uint(), !l1.Marked()
		res.vals[1], res.found[1] = v2.Uint(), !l2.Marked()
	case opMGet8:
		// Wider than MaxShort: one full read-only transaction.
		res.n = 8
		for committed := false; !committed; committed = t.TxCommit() {
			t.TxStart()
			for i := 0; i < 8; i++ {
				key := k
				if i > 0 {
					key = o.mgetKey(i, s.n)
				}
				lv, vv := t.TxRead(s.link[key]), t.TxRead(s.val[key])
				res.vals[i], res.found[i] = vv.Uint(), !lv.Marked()
			}
		}
	case opScan:
		// One single-location read per link walked plus one ShortRO2
		// per live key, as the ordered scan pays.
		for i := int(k); i < s.n && res.n < scanLimit; i++ {
			if t.SingleRead(s.link[i]).Marked() {
				continue
			}
			if v, ok := s.get(uint32(i)); ok {
				res.keys[res.n], res.vals[res.n], res.found[res.n] = uint32(i), v, true
				res.n++
			}
		}
	}
}

// ---- r2/r3: shardmap, volatile then durable ----

// mapDo runs o on th the way the serving layer does (or, with put, the
// way a direct spectm.Map caller does: Put instead of Update-then-Put).
func mapDo(th *shardmap.Thread, o *op, old uint64, keys []string, put bool, sc *scratch, res *result) {
	*res = result{}
	key := keys[o.key]
	switch o.kind {
	case opGet:
		if v, ok := th.Get(key); ok {
			res.n, res.vals[0] = 1, v.Uint()
		}
	case opSet:
		v := word.FromUint(o.val)
		if put || !th.Update(key, v) {
			th.Put(key, v)
		}
		res.ok = true
	case opDel:
		res.ok = th.Delete(key)
	case opCAS:
		res.ok = th.CompareAndSwap(key, word.FromUint(old), word.FromUint(o.val))
	case opSwap2:
		res.ok = th.Swap2(key, keys[o.key^1])
	case opMGet2, opMGet8:
		n := 2
		if o.kind == opMGet8 {
			n = 8
		}
		sc.keys[0] = key
		for i := 1; i < n; i++ {
			sc.keys[i] = keys[o.mgetKey(i, len(keys))]
		}
		th.GetBatch(sc.keys[:n], sc.vals[:n], sc.found[:n])
		res.n = n
		for i := 0; i < n; i++ {
			res.vals[i], res.found[i] = sc.vals[i].Uint(), sc.found[i]
		}
	case opScan:
		ks, vs, err := th.Scan(key, "", scanLimit, sc.skeys[:0], sc.svals[:0])
		sc.skeys, sc.svals = ks, vs
		if res.bad = err != nil || len(ks) > maxResult; res.bad {
			return
		}
		res.n = len(ks)
		for i, k := range ks {
			idx, ok := keyIndex([]byte(k))
			res.bad = res.bad || !ok
			res.keys[i], res.vals[i], res.found[i] = uint32(idx), vs[i].Uint(), true
		}
	}
}

// mapStack is a shardmap.Thread on a preloaded map: volatile (r2) or
// opened over a directory under the workload's fsync policy (r3).
type mapStack struct {
	m    *shardmap.Map
	th   *shardmap.Thread
	keys []string
	put  bool
	sc   scratch
}

// newMapStack builds and preloads the map. dir == "" keeps it volatile.
// The ordered index is on whenever the workload is served over the
// wire, because spectm-server always turns it on.
func newMapStack(w *workload, keys []string, dir string, wc *walCounters) (*mapStack, error) {
	e := newEngine(w)
	var opts []shardmap.Option
	if !w.embedded {
		opts = append(opts, shardmap.WithOrdered())
	}
	var m *shardmap.Map
	if dir == "" {
		m = shardmap.New(e, opts...)
	} else {
		policy, err := wal.ParsePolicy(w.fsync)
		if err != nil {
			return nil, err
		}
		opts = append(opts, shardmap.WithPersistence(dir, policy),
			shardmap.WithLogWrap(func(f wal.File) wal.File { return countingFile{f, wc} }))
		if m, err = shardmap.Open(e, dir, opts...); err != nil {
			return nil, err
		}
	}
	preloadMap(m, keys, w.fsync == "always")
	return &mapStack{m: m, th: m.NewThread(), keys: keys, put: w.embedded}, nil
}

// preloadMap stores every key's preload value. Under fsync=always every
// Put waits for a group commit, so the keys are fanned out over many
// threads to let one fsync cover many of them.
func preloadMap(m *shardmap.Map, keys []string, fanOut bool) {
	workers := 1
	if fanOut {
		workers = 32
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := m.NewThread()
			for i := g * len(keys) / workers; i < (g+1)*len(keys)/workers; i++ {
				th.Put(keys[i], word.FromUint(valueOf(uint32(i), preloadTag)))
			}
		}(g)
	}
	wg.Wait()
}

func (s *mapStack) do(o *op, old uint64, res *result) {
	mapDo(s.th, o, old, s.keys, s.put, &s.sc, res)
}

func (s *mapStack) close() error { return s.m.Close() }

// walCounters is what the counting wal.File wrapper sees: every write
// and fsync the log's syncer issues, and the time spent in fsync.
type walCounters struct {
	writes, syncs, syncNs atomic.Int64
}

type countingFile struct {
	wal.File
	c *walCounters
}

func (f countingFile) Write(p []byte) (int, error) {
	f.c.writes.Add(1)
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.syncNs.Add(int64(time.Since(t0)))
	f.c.syncs.Add(1)
	return err
}

// ---- r4: r3 behind the command and reply codecs ----

// protoStack sends every op through proto.Writer → Reader.Next →
// dispatch → proto.Writer → ReadReply, all in memory.
type protoStack struct {
	inner    *mapStack
	cmd, rep memPipe
	cw, sw   *proto.Writer // client-side command writer, server-side reply writer
	cr, sr   *proto.Reader // client-side reply reader, server-side command reader
}

func newProtoStack(inner *mapStack) *protoStack {
	s := &protoStack{inner: inner}
	s.cw, s.sr = proto.NewWriter(&s.cmd), proto.NewReader(&s.cmd)
	s.sw, s.cr = proto.NewWriter(&s.rep), proto.NewReader(&s.rep)
	return s
}

func (s *protoStack) do(o *op, old uint64, res *result) {
	encodeOp(s.cw, o, old, s.inner.keys)
	s.cw.Flush()
	args, err := s.sr.Next()
	if err == nil {
		err = dispatch(args, s.inner.th, s.sw, &s.inner.sc)
	}
	s.sw.Flush()
	if err == nil {
		err = readResult(s.cr, o, res)
	}
	if err != nil {
		*res = result{bad: true}
	}
}

func (s *protoStack) close() error { return s.inner.close() }

// ---- the embedded system under test ----

// embeddedSUT is embed-mixed's system: a spectm.Map reached through the
// public package, one MapThread per generator goroutine.
type embeddedSUT struct {
	m   *spectm.Map
	ths []*spectm.MapThread
}

// startEmbedded builds the engine and map and preloads every key; its
// duration is one setup_s sample.
func startEmbedded(w *workload, keys []string) *embeddedSUT {
	e := spectm.New(spectm.WithLayout(spectm.LayoutVal)) // MaxThreads: the public default, w.engineThreads
	s := &embeddedSUT{m: spectm.NewMap(e)}
	for i := 0; i < w.conns; i++ {
		s.ths = append(s.ths, s.m.NewThread())
	}
	for i, k := range keys {
		s.ths[0].Put(k, spectm.FromUint(valueOf(uint32(i), preloadTag)))
	}
	return s
}

// liveMetrics reports what the engine and map counted while the
// generator goroutines contended on them.
func (s *embeddedSUT) liveMetrics(m metrics) {
	var cs core.Stats
	for _, th := range s.ths {
		cs.Add(th.Thr().Stats)
	}
	os, cm := s.m.OpStats(), s.m.CMStats()
	m["core.aborts_per_commit"] = ratio(float64(cs.ShortAborts+cs.Aborts), float64(cs.ShortCommits+cs.Commits))
	m["shardmap.conflicts_per_op"] = ratio(float64(cm.Conflicts), float64(os.Ops()))
	m["shardmap.escalations_per_op"] = ratio(float64(cm.Escalations), float64(os.Ops()))
}
