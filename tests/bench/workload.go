package main

import (
	"math"
	"strconv"
)

// opKind is one wire command (or its embedded equivalent).
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opCAS
	opSwap2
	opMGet2
	opMGet8
	opScan
	nOpKinds
)

var opNames = [nOpKinds]string{"GET", "SET", "DEL", "CAS", "SWAP2", "MGET2", "MGET8", "SCAN"}

// isWrite reports whether the command mutates (and so reaches the WAL
// and the replica when it hits).
func (k opKind) isWrite() bool { return k >= opSet && k <= opSwap2 }

const (
	scanLimit = 32
	maxResult = scanLimit // widest reply: a full scan
)

// workload is one traffic shape; mix holds each command's share of 100.
type workload struct {
	name string
	why  string
	// ungated, when set, says why the workload is left out of
	// BENCHMARK.json: the tool runs it, the driver does not gate on it.
	ungated string

	embedded bool   // in-process spectm.Map instead of a spawned server
	fsync    string // server -fsync policy ("" = no WAL)
	replica  bool   // spawn one streaming replica
	keys     int    // key population, a power of two
	zipf     bool   // zipf 0.99 instead of uniform
	mget8    bool   // the MGET share alternates 2-key and 8-key batches
	mix      [nOpKinds]int
	conns    int // generator clients (connections or goroutines)
	depth    int // commands in flight per connection

	// engineThreads is the MaxThreads of the live system's engine, which
	// the ladder's engines copy: spectm.New's default when embedded,
	// spectm-server's default -maxconns plus its 4 spare otherwise.
	engineThreads int

	preloadConns int // connections used to preload (≥ conns; extras idle afterwards)
	traceOps     int // ops replayed per ladder rung
	topRung      int // highest ladder rung this workload exercises
}

// The four workloads, with ISSUE 12's key populations. A key costs
// 350–450 B of map (shardmap.bytes_per_key at these sizes), so none of
// them fits a core's 2 MiB L2 and they spread over the host's shared
// 260 MiB L3: wire-sync ≈6 MB and embed-mixed ≈25 MB sit well inside
// it, wire-write ≈115 MB competes for it with the neighbours, and
// wire-read ≈350 MB exceeds it outright. A layout or footprint change
// therefore has a workload that feels it and one that does not.
var workloads = []workload{
	{
		name:     "embed-mixed",
		why:      "core+shardmap do all the work, wal/proto/server/repl none: a core or CM/CC change shows here and nowhere else",
		embedded: true, keys: 1 << 16, engineThreads: 128,
		mix:   [nOpKinds]int{opGet: 70, opSet: 20, opDel: 3, opCAS: 3, opSwap2: 2, opMGet2: 2},
		conns: 2, depth: 1, preloadConns: 1, traceOps: 200_000, topRung: 2,
	},
	{
		name:  "wire-read",
		why:   "read path over the wire: codec, dispatch and socket flush over a 1 Mi-key zipf map far beyond the L2, wal nearly idle; covers MGET and olist scan paths",
		fsync: "every=64", keys: 1 << 20, zipf: true, mget8: true, engineThreads: 260,
		mix:   [nOpKinds]int{opGet: 85, opSet: 5, opMGet2: 5, opScan: 5},
		conns: 2, depth: 16, preloadConns: 2, traceOps: 60_000, topRung: 5,
	},
	{
		name:  "wire-write",
		why:   "non-blocking write path end to end: WAL append, group commit, repl sender/ACK; a read-side gain that taxes writes shows",
		fsync: "every=64", replica: true, keys: 1 << 18, engineThreads: 260,
		mix:   [nOpKinds]int{opGet: 20, opSet: 60, opDel: 5, opCAS: 10, opSwap2: 5},
		conns: 2, depth: 16, preloadConns: 2, traceOps: 60_000, topRung: 6,
	},
	{
		name:    "wire-sync",
		why:     "every write waits on the fsync group-commit frontier: pipeline-granular commit must show here, codec gains must not",
		ungated: "its end-to-end numbers are the sandbox's fsync latency: spreads of 10-23 % in a good hour, 47-84 % in a bad one",
		fsync:   "always", keys: 1 << 14, engineThreads: 260,
		mix:   [nOpKinds]int{opGet: 50, opSet: 40, opCAS: 10},
		conns: 2, depth: 16, preloadConns: 32, traceOps: 4_000, topRung: 5,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) has(k opKind) bool {
	return w.mix[k] > 0 || (k == opMGet8 && w.mget8)
}

// scaled returns a copy with the given key population and trace length
// (the tests' fast configuration).
func (w workload) scaled(keys, traceOps int) workload {
	w.keys, w.traceOps = keys, traceOps
	return w
}

// ---- keys and values ----

// keyString renders key i as its 16-byte wire form. Fixed width keeps
// lexicographic order equal to numeric order, which the SCAN check
// relies on.
func keyString(i int) string {
	const prefix = "key-000000000000"
	s := strconv.Itoa(i)
	return prefix[:16-len(s)] + s
}

// keyIndex is keyString's inverse; ok is false for a foreign key.
func keyIndex(b []byte) (int, bool) {
	if len(b) != 16 || string(b[:4]) != "key-" {
		return 0, false
	}
	n := 0
	for _, c := range b[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Values carry their key in the high bits so that a reply routed to the
// wrong command fails its check: value = key<<32 | tag, tag ≥ 1.
func valueOf(key uint32, tag uint32) uint64 { return uint64(key)<<32 | uint64(tag) }

const preloadTag = 1

// ---- generator ----

// splitmix64: the generator's only source of randomness, kept local so
// the op stream does not change when the repository's own PRNG does.
type rngState uint64

func (s *rngState) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (s *rngState) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipfian draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^theta (the
// YCSB generator of Gray et al.); theta < 1 is what math/rand.Zipf
// cannot do.
type zipfian struct {
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64 // 1 + 0.5^theta
}

func newZipfian(n int, theta float64) *zipfian {
	z := &zipfian{n: float64(n), theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.half = zeta2
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipfian) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// op is one generated command. For CAS the expected old value is not
// part of the stream: it comes from the client's model at issue time.
type op struct {
	kind opKind
	key  uint32 // first (or only) key; SWAP2 pairs it with key^1
	aux  uint32 // seeds the remaining MGET keys
	val  uint64 // new value for SET and CAS
}

// mgetKey returns the i-th key of an MGET (i ≥ 1; key 0 is o.key).
// Extra keys are uniform over the population and never equal o.key's
// predecessors by construction of the stride.
func (o *op) mgetKey(i int, nkeys int) uint32 {
	return (o.key + uint32(i)*(o.aux|1)) & uint32(nkeys-1)
}

// gen produces one client's op stream: a pure function of (workload,
// seed, client id).
type gen struct {
	w    *workload
	r    rngState
	z    *zipfian
	cum  [nOpKinds]int
	tag  uint32
	flip bool // last MGET was the 8-key form
	mask uint32
}

func newGen(w *workload, z *zipfian, seed uint64, client int) *gen {
	g := &gen{w: w, z: z, mask: uint32(w.keys - 1)}
	g.r = rngState(seed*0x9e3779b97f4a7c15 + uint64(client+1)*0xd1342543de82ef95)
	sum := 0
	for k := range g.cum {
		sum += w.mix[k]
		g.cum[k] = sum
	}
	if sum != 100 {
		panic("bench: workload " + w.name + " mix does not sum to 100")
	}
	// Tags start above preloadTag and differ per client, so two clients
	// never write the same value to one key.
	g.tag = uint32(client+1) << 28
	return g
}

func (g *gen) pickKey() uint32 {
	if g.z == nil {
		return uint32(g.r.next()>>32) & g.mask
	}
	// Scramble ranks so hot keys are spread over the key space (and the
	// ordered index) instead of clustering at its start.
	return uint32(g.z.rank(g.r.float())) * 0x9e3779b1 & g.mask
}

func (g *gen) next(o *op) {
	p := int(g.r.next() >> 33 % 100)
	k := opKind(0)
	for p >= g.cum[k] {
		k++
	}
	o.kind, o.key, o.aux, o.val = k, g.pickKey(), 0, 0
	switch k {
	case opSet, opCAS:
		g.tag++
		o.val = valueOf(o.key, g.tag)
	case opMGet2:
		o.aux = uint32(g.r.next() >> 32)
		if g.flip = g.w.mget8 && !g.flip; g.flip {
			o.kind = opMGet8
		}
	}
}

// ---- results and the checking model ----

// result is one decoded reply, in a shape every stack (embedded calls,
// in-memory proto, sockets) can fill.
type result struct {
	ok    bool // SET: +OK; DEL/CAS/SWAP2: integer 1
	bad   bool // error reply or wrong shape
	n     int  // GET: 1 if found; MGET/SCAN: entries
	vals  [maxResult]uint64
	found [maxResult]bool
	keys  [maxResult]uint32 // SCAN only
}

// model is a client's view of the store, used three ways: it supplies
// CAS's expected old value, it checks that every value names the key it
// was read from, and — when exact (one client, deterministic replay) —
// it predicts every reply in full.
type model struct {
	w     *workload
	vals  []uint64 // 0 = absent
	exact bool
	pairs bool // SWAP2 in the mix: a value may sit under key^1
}

func newModel(w *workload, exact bool) *model {
	m := &model{w: w, vals: make([]uint64, w.keys), exact: exact, pairs: w.has(opSwap2)}
	for i := range m.vals {
		m.vals[i] = valueOf(uint32(i), preloadTag)
	}
	return m
}

// casOld is the value the next CAS on key should expect.
func (m *model) casOld(key uint32) uint64 {
	if v := m.vals[key]; v != 0 {
		return v
	}
	return valueOf(key, preloadTag) // absent: a value that cannot match
}

func (m *model) ident(v uint64, key uint32) bool {
	k := uint32(v >> 32)
	if m.pairs {
		return k|1 == key|1
	}
	return k == key
}

// read checks one (found, value) observation of key and folds it into
// the model.
func (m *model) read(key uint32, found bool, v uint64) bool {
	good := true
	if found {
		good = m.ident(v, key) && v&0xffffffff != 0
	} else if !m.w.has(opDel) {
		good = false // nothing deletes: a preloaded key cannot be absent
	}
	if m.exact {
		good = good && found == (m.vals[key] != 0) && (!found || v == m.vals[key])
	}
	if found {
		m.vals[key] = v
	} else {
		m.vals[key] = 0
	}
	return good
}

// check validates r against o and updates the model. It reports false
// for an error reply, a wrong shape, a value under the wrong key, or —
// in exact mode — any difference from the predicted reply.
func (m *model) check(o *op, old uint64, r *result) bool {
	if r.bad {
		return false
	}
	switch o.kind {
	case opGet:
		return m.read(o.key, r.n == 1, r.vals[0])
	case opSet:
		m.vals[o.key] = o.val
		return r.ok
	case opDel:
		good := !m.exact || r.ok == (m.vals[o.key] != 0)
		m.vals[o.key] = 0
		return good
	case opCAS:
		good := !m.exact || r.ok == (m.vals[o.key] == old)
		if r.ok {
			m.vals[o.key] = o.val
		}
		return good
	case opSwap2:
		a, b := o.key, o.key^1
		good := !m.exact || r.ok == (m.vals[a] != 0 && m.vals[b] != 0)
		if r.ok {
			m.vals[a], m.vals[b] = m.vals[b], m.vals[a]
		}
		return good
	case opMGet2, opMGet8:
		want := 2
		if o.kind == opMGet8 {
			want = 8
		}
		if r.n != want {
			return false
		}
		good := true
		for i := 0; i < want; i++ {
			key := o.key
			if i > 0 {
				key = o.mgetKey(i, m.w.keys)
			}
			good = m.read(key, r.found[i], r.vals[i]) && good
		}
		return good
	case opScan:
		return m.checkScan(o, r)
	}
	return false
}

// checkScan validates a SCAN from o.key with an open end: at most
// scanLimit entries, strictly ascending from the start key, each value
// under its own key; the listing is exactly the next present keys when
// nothing deletes (or in exact mode).
func (m *model) checkScan(o *op, r *result) bool {
	if r.n > scanLimit {
		return false
	}
	good := true
	prev := int64(o.key) - 1
	for i := 0; i < r.n; i++ {
		if int64(r.keys[i]) <= prev || int(r.keys[i]) >= m.w.keys {
			return false
		}
		prev = int64(r.keys[i])
		good = m.read(r.keys[i], true, r.vals[i]) && good
	}
	if m.exact || !m.w.has(opDel) {
		// Expected listing: the first scanLimit present keys ≥ start.
		// (Without exact knowledge nothing deletes, so every key is
		// present and the model's vals are all non-zero.)
		i := 0
		for k := int(o.key); k < m.w.keys && i < scanLimit; k++ {
			if m.vals[k] == 0 {
				continue
			}
			if i >= r.n || r.keys[i] != uint32(k) {
				return false
			}
			i++
		}
		good = good && i == r.n
	}
	return good
}
