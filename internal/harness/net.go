// Net workload: a closed-loop pipelined load generator for
// spectm-server. N client connections each keep a fixed-depth pipeline
// of commands in flight — write depth commands, flush, read depth
// replies — which is the many-connection, batched-RPC shape of real
// key-value front-ends.
package harness

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"spectm/internal/core"
	"spectm/internal/proto"
	"spectm/internal/rng"
)

// NetWorkload describes one load-generation run against a spectm-server
// at Addr. A zero count means its default; a negative one is an error.
type NetWorkload struct {
	Addr     string
	Conns    int // concurrent connections (default 4)
	Pipeline int // commands in flight per connection (default 16)

	Keys    int    // distinct key population (default 16384)
	GetPct  int    // op mix; defaults 70/20/3/3/2/2 (sums to 100)
	SetPct  int    //
	DelPct  int    //
	CASPct  int    //
	SwapPct int    // SWAP2
	MGetPct int    // alternating 2-key (short-txn) and 3-key (full-txn)
	ScanPct int    // SCAN from a random start key, ScanLimit keys
	ScanLim int    // SCAN limit (default 32)
	Dist    string // "uniform" (default) or "zipf"

	Duration time.Duration
	Seed     uint64

	SkipPreload bool // skip SETting all keys before measuring
}

func (w NetWorkload) withDefaults() NetWorkload {
	if w.Conns == 0 {
		w.Conns = 4
	}
	if w.Pipeline == 0 {
		w.Pipeline = 16
	}
	if w.Keys == 0 {
		w.Keys = 16384
	}
	if w.GetPct == 0 && w.SetPct == 0 && w.DelPct == 0 && w.CASPct == 0 &&
		w.SwapPct == 0 && w.MGetPct == 0 && w.ScanPct == 0 {
		w.GetPct, w.SetPct, w.DelPct, w.CASPct, w.SwapPct, w.MGetPct = 70, 20, 3, 3, 2, 2
	}
	if w.ScanLim == 0 {
		w.ScanLim = 32
	}
	if w.Dist == "" {
		w.Dist = "uniform"
	}
	if w.Duration == 0 {
		w.Duration = time.Second
	}
	if w.Seed == 0 {
		w.Seed = 0xC0FFEE
	}
	return w
}

// NetResult reports one load-generation run.
type NetResult struct {
	Workload    NetWorkload
	Ops         uint64 // commands completed (one MGET counts once)
	Elapsed     time.Duration
	OpsPerSec   float64
	AllocsPerOp float64 // client-process mallocs per op during the run
	Errors      uint64  // error replies + reply-shape mismatches

	Gets, Sets, Dels, CASes, Swaps, MGets, Scans uint64
}

// netOp is one slot of a pipeline's expectation window.
type netOp uint8

const (
	opGet netOp = iota
	opSet
	opDel
	opCAS
	opSwap
	opMGet2
	opMGet3
	opScan
)

// netConn is one load-generation connection.
type netConn struct {
	nc net.Conn
	rd *proto.Reader
	wr *proto.Writer
}

// dialServer connects with retries, so a loadgen racing a just-started
// server (CI: server &; loadgen) settles instead of failing.
func dialServer(addr string, patience time.Duration) (*netConn, error) {
	deadline := time.Now().Add(patience)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			c := &netConn{nc: nc, rd: proto.NewReader(nc), wr: proto.NewWriter(nc)}
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("harness: dial %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (c *netConn) close() { c.nc.Close() }

// ping round-trips PING and STATS, validating the connection end to end.
func (c *netConn) ping() error {
	c.wr.Array(1)
	c.wr.Arg("PING")
	c.wr.Array(1)
	c.wr.Arg("STATS")
	if err := c.wr.Flush(); err != nil {
		return err
	}
	var rep proto.Reply
	if err := c.rd.ReadReply(&rep); err != nil {
		return err
	}
	if rep.Kind != proto.KindSimple || string(rep.Str) != "PONG" {
		return fmt.Errorf("harness: unexpected PING reply %q %q", rep.Kind, rep.Str)
	}
	if err := c.rd.ReadReply(&rep); err != nil {
		return err
	}
	if rep.Kind != proto.KindBulk {
		return fmt.Errorf("harness: unexpected STATS reply kind %q", rep.Kind)
	}
	return nil
}

// preload SETs every key, pipelined in chunks.
func (c *netConn) preload(keys []string) error {
	var rep proto.Reply
	const chunk = 512
	for base := 0; base < len(keys); base += chunk {
		n := min(chunk, len(keys)-base)
		for i := 0; i < n; i++ {
			c.wr.Array(3)
			c.wr.Arg("SET")
			c.wr.Arg(keys[base+i])
			c.wr.ArgUint(uint64(base + i))
		}
		if err := c.wr.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := c.rd.ReadReply(&rep); err != nil {
				return err
			}
			if rep.Kind == proto.KindError {
				return fmt.Errorf("harness: preload error: %s", rep.Str)
			}
		}
	}
	return nil
}

// zipfSource adapts the repository PRNG to math/rand for the Zipf
// sampler (setup-time only; sampling itself is allocation-free).
type zipfSource struct{ s *rng.State }

func (z zipfSource) Int63() int64   { return int64(z.s.Next() >> 1) }
func (z zipfSource) Uint64() uint64 { return z.s.Next() }
func (z zipfSource) Seed(int64)     {}

// keyPicker returns a sampler over [0, n) for the configured
// distribution. The Zipf exponent 1.1 gives the classic hot-key skew of
// key-value-store traffic studies.
func keyPicker(dist string, r *rng.State, n int) (func() int, error) {
	switch dist {
	case "uniform":
		return func() int { return int(r.Intn(uint64(n))) }, nil
	case "zipf":
		z := rand.NewZipf(rand.New(zipfSource{r}), 1.1, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }, nil
	default:
		return nil, fmt.Errorf("harness: unknown key distribution %q", dist)
	}
}

// RunNet executes the workload and reports client-side throughput.
func RunNet(w NetWorkload) (NetResult, error) {
	w = w.withDefaults()
	if w.Conns < 0 || w.Pipeline < 0 || w.Keys < 0 || w.ScanLim < 0 {
		return NetResult{}, fmt.Errorf("harness: negative conns/pipeline/keys/scan limit %d/%d/%d/%d",
			w.Conns, w.Pipeline, w.Keys, w.ScanLim)
	}
	if sum := w.GetPct + w.SetPct + w.DelPct + w.CASPct + w.SwapPct + w.MGetPct +
		w.ScanPct; sum != 100 {
		return NetResult{}, fmt.Errorf("harness: net op mix sums to %d, want 100", sum)
	}
	if _, err := keyPicker(w.Dist, rng.New(1), w.Keys); err != nil {
		return NetResult{}, err
	}
	keys := make([]string, w.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}

	// Readiness, end-to-end validation, and preload on one connection.
	c0, err := dialServer(w.Addr, 5*time.Second)
	if err != nil {
		return NetResult{}, err
	}
	if err := c0.ping(); err != nil {
		c0.close()
		return NetResult{}, err
	}
	if !w.SkipPreload {
		if err := c0.preload(keys); err != nil {
			c0.close()
			return NetResult{}, err
		}
	}
	c0.close()

	var errs, gets, sets, dels, cases, swaps, mgets, scans atomic.Uint64
	var dialErr atomic.Pointer[error]
	ops, _, elapsed, mallocs := runWorkers(w.Conns, w.Duration, func(id int) workerBody {
		c, err := dialServer(w.Addr, 5*time.Second)
		if err != nil {
			dialErr.Store(&err)
			return func(stop *atomic.Bool) (uint64, core.Stats) { return 0, core.Stats{} }
		}
		r := rng.New(w.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		pick, _ := keyPicker(w.Dist, r, w.Keys) // dist validated above
		window := make([]netOp, w.Pipeline)
		var rep proto.Reply
		return func(stop *atomic.Bool) (uint64, core.Stats) {
			defer c.close()
			var ops uint64
			var nGet, nSet, nDel, nCAS, nSwap, nMGet, nScan uint64
			defer func() {
				gets.Add(nGet)
				sets.Add(nSet)
				dels.Add(nDel)
				cases.Add(nCAS)
				swaps.Add(nSwap)
				mgets.Add(nMGet)
				scans.Add(nScan)
			}()
			for !stop.Load() {
				// Issue one full pipeline...
				for i := range window {
					key := keys[pick()]
					switch p := int(r.Intn(100)); {
					case p < w.GetPct:
						window[i] = opGet
						c.wr.Array(2)
						c.wr.Arg("GET")
						c.wr.Arg(key)
						nGet++
					case p < w.GetPct+w.SetPct:
						window[i] = opSet
						c.wr.Array(3)
						c.wr.Arg("SET")
						c.wr.Arg(key)
						c.wr.ArgUint(r.Next() >> 3)
						nSet++
					case p < w.GetPct+w.SetPct+w.DelPct:
						window[i] = opDel
						c.wr.Array(2)
						c.wr.Arg("DEL")
						c.wr.Arg(key)
						nDel++
					case p < w.GetPct+w.SetPct+w.DelPct+w.CASPct:
						window[i] = opCAS
						c.wr.Array(4)
						c.wr.Arg("CAS")
						c.wr.Arg(key)
						c.wr.ArgUint(r.Next() >> 3)
						c.wr.ArgUint(r.Next() >> 3)
						nCAS++
					case p < w.GetPct+w.SetPct+w.DelPct+w.CASPct+w.SwapPct:
						window[i] = opSwap
						c.wr.Array(3)
						c.wr.Arg("SWAP2")
						c.wr.Arg(key)
						c.wr.Arg(keys[pick()])
						nSwap++
					case p < w.GetPct+w.SetPct+w.DelPct+w.CASPct+w.SwapPct+w.MGetPct:
						nMGet++
						if r.Next()&1 == 0 {
							window[i] = opMGet2
							c.wr.Array(3)
							c.wr.Arg("MGET")
							c.wr.Arg(key)
							c.wr.Arg(keys[pick()])
						} else {
							window[i] = opMGet3
							c.wr.Array(4)
							c.wr.Arg("MGET")
							c.wr.Arg(key)
							c.wr.Arg(keys[pick()])
							c.wr.Arg(keys[pick()])
						}
					default:
						window[i] = opScan
						c.wr.Array(4)
						c.wr.Arg("SCAN")
						c.wr.Arg(key) // random start, open end, bounded by limit
						c.wr.Arg("")
						c.wr.ArgUint(uint64(w.ScanLim))
						nScan++
					}
				}
				if c.wr.Flush() != nil {
					// A write-side failure is as much a run error as a
					// failed read: count it so the report and the exit
					// status reflect the broken connection.
					errs.Add(1)
					return ops, core.Stats{}
				}
				// ... then collect its replies.
				for _, op := range window {
					if err := c.rd.ReadReply(&rep); err != nil {
						errs.Add(1)
						return ops, core.Stats{}
					}
					if !validReply(op, &rep, c.rd) {
						errs.Add(1)
					}
					ops++
				}
			}
			return ops, core.Stats{}
		}
	})
	if p := dialErr.Load(); p != nil {
		return NetResult{}, *p
	}

	res := NetResult{
		Workload: w, Ops: ops, Elapsed: elapsed,
		Errors: errs.Load(),
		Gets:   gets.Load(), Sets: sets.Load(), Dels: dels.Load(),
		CASes: cases.Load(), Swaps: swaps.Load(), MGets: mgets.Load(),
		Scans: scans.Load(),
	}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	if res.Ops > 0 {
		res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	}
	return res, nil
}

// validReply checks one reply's shape against the command that earned
// it, consuming array elements for MGET.
func validReply(op netOp, rep *proto.Reply, rd *proto.Reader) bool {
	switch op {
	case opGet:
		return rep.Kind == proto.KindInt || (rep.Kind == proto.KindBulk && rep.Null)
	case opSet:
		return rep.Kind == proto.KindSimple
	case opDel, opCAS, opSwap:
		return rep.Kind == proto.KindInt && (rep.Int == 0 || rep.Int == 1)
	case opMGet2, opMGet3:
		want := int64(2)
		if op == opMGet3 {
			want = 3
		}
		if rep.Kind != proto.KindArray || rep.Int != want {
			return false
		}
		ok := true
		for i := int64(0); i < want; i++ {
			if err := rd.ReadReply(rep); err != nil {
				return false
			}
			if rep.Kind != proto.KindInt && !(rep.Kind == proto.KindBulk && rep.Null) {
				ok = false
			}
		}
		return ok
	case opScan:
		// Flat array of alternating key bulks and value ints.
		if rep.Kind != proto.KindArray || rep.Int%2 != 0 {
			return false
		}
		n := rep.Int
		ok := true
		for i := int64(0); i < n; i++ {
			if err := rd.ReadReply(rep); err != nil {
				return false
			}
			if i%2 == 0 {
				if rep.Kind != proto.KindBulk || rep.Null {
					ok = false
				}
			} else if rep.Kind != proto.KindInt {
				ok = false
			}
		}
		return ok
	}
	return false
}
