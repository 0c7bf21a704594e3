// Nemesis-driven failover oracle: a primary feeding two replicas
// through fault-injecting proxies, a seeded nemesis schedule disturbing
// the links mid-traffic, then a primary death and an automatic,
// coordinator-driven promotion. After every run the oracle checks the
// acceptance invariants end to end:
//
//   - no acknowledged-durable write is lost: every write confirmed
//     replicated (WAITOFF past a REPLPOS frontier) before the primary
//     died is present on the promoted primary;
//   - reads are prefix-consistent across the promotion: per key the
//     observed value is one that was actually written, at least the
//     confirmed frontier and at most the last acknowledged write, and a
//     reader watching the promoted node never sees a value go backwards;
//   - the survivors converge: once the loser is re-pointed at the new
//     primary, both serve identical contents at a bumped epoch.
//
// The schedule is a pure function of the seed (asserted here), so any
// failure interleaving this test finds is replayable bit for bit.
package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	cl "spectm/internal/client"
	"spectm/internal/nemesis"
	"spectm/internal/wal"
)

// nemesisSeeds are the three schedules CI's failover-smoke job replays;
// -short runs the first only.
var nemesisSeeds = []int64{0x0D15EA5E, 2, 3}

// node wraps a server whose Shutdown the test may trigger early (the
// primary "dies" mid-test); the cleanup path tolerates that.
type node struct {
	s    *Server
	done chan error
	once sync.Once
}

func (n *node) shutdown() {
	n.once.Do(func() {
		n.s.Shutdown()
		<-n.done
	})
}

func startNode(t *testing.T, opts ...Option) *node {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	n := &node{s: s, done: make(chan error, 1)}
	go func() { n.done <- s.Serve() }()
	t.Cleanup(n.shutdown)
	return n
}

// nemWriter drives one writer's key space with per-key monotonic
// versions, tracking the last acknowledged value of every key. Only one
// goroutine touches a writer at a time.
type nemWriter struct {
	c     *cl.Client
	keys  []string
	acked []uint64
}

func newNemWriter(t *testing.T, s *Server, id, nkeys int) *nemWriter {
	w := &nemWriter{c: dialc(t, s)}
	for i := 0; i < nkeys; i++ {
		w.keys = append(w.keys, fmt.Sprintf("w%dk%d", id, i))
		w.acked = append(w.acked, 0)
	}
	return w
}

// writeRound writes every key once, bumping its version.
func (w *nemWriter) writeRound(t *testing.T) {
	for i, k := range w.keys {
		if err := w.c.Set(k, w.acked[i]+1); err != nil {
			t.Errorf("SET %s: %v", k, err)
			return
		}
		w.acked[i]++
	}
}

func (w *nemWriter) snapshot() []uint64 {
	return append([]uint64(nil), w.acked...)
}

func TestNemesisFailoverOracle(t *testing.T) {
	seeds := nemesisSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runNemesisFailover(t, seed)
		})
	}
}

func runNemesisFailover(t *testing.T, seed int64) {
	// Replayability first: the schedule is a pure function of the seed.
	cfg := nemesis.Config{Targets: 2, Events: 6, Horizon: 500 * time.Millisecond}
	sched := nemesis.Generate(seed, cfg)
	if again := nemesis.Generate(seed, cfg); !reflect.DeepEqual(sched, again) {
		t.Fatalf("schedule for seed %d is not deterministic:\n%v\n%v", seed, sched, again)
	}

	// A: primary. B, C: promotable replicas tailing A through
	// fault-injecting proxies (the nemesis disturbs replication links,
	// never the client plane).
	a := startNode(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{ReplListen: "127.0.0.1:0"}))
	pb, err := nemesis.NewProxy("127.0.0.1:0", a.s.ReplAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	pc, err := nemesis.NewProxy("127.0.0.1:0", a.s.ReplAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	proxies := []*nemesis.Proxy{pb, pc}

	b := startNode(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{Primary: pb.Addr(), ReplListen: "127.0.0.1:0"}))
	c := startNode(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{Primary: pc.Addr(), ReplListen: "127.0.0.1:0"}))

	ca, cb, cc := dialc(t, a.s), dialc(t, b.s), dialc(t, c.s)

	// A reader watches B — the node that will be promoted — across the
	// promotion; its observed values must never go backwards.
	const watchKey = "w0k0"
	readerStop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		rc, err := cl.Dial(b.s.Addr().String(), cl.WithTimeout(10*time.Second))
		if err != nil {
			readerDone <- err
			return
		}
		defer rc.Close()
		var last uint64
		for {
			select {
			case <-readerStop:
				readerDone <- nil
				return
			default:
			}
			v, ok, err := rc.Get(watchKey)
			if err != nil {
				readerDone <- fmt.Errorf("reader GET: %w", err)
				return
			}
			if ok && v < last {
				readerDone <- fmt.Errorf("non-monotonic read across promotion: %d after %d", v, last)
				return
			}
			if ok {
				last = v
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Phase 1: writers hammer A while the nemesis plays the seeded
	// schedule against the replication proxies.
	writers := []*nemWriter{newNemWriter(t, a.s, 0, 4), newNemWriter(t, a.s, 1, 4)}
	playDone := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range writers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-playDone:
					return
				default:
				}
				w.writeRound(t)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	nemesis.Play(sched, func(e nemesis.Event) {
		t.Logf("nemesis @%v: %v target=%d dur=%v", e.At, e.Kind, e.Target, e.Dur)
		proxies[e.Target].Apply(e)
	}, nil)
	close(playDone)
	wg.Wait()

	// Heal everything (Generate pairs every disruption with a heal, but
	// the oracle should not depend on that) and establish the confirmed
	// frontier: every write below it is on BOTH replicas — these are the
	// acknowledged-durable writes that must survive the failover.
	pb.Heal()
	pc.Heal()
	pos, err := ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 20*time.Second); err != nil {
		t.Fatalf("B never reached the frontier: %v", err)
	}
	if err := cc.WaitOff(pos, 20*time.Second); err != nil {
		t.Fatalf("C never reached the frontier: %v", err)
	}
	guaranteed := [][]uint64{writers[0].snapshot(), writers[1].snapshot()}

	// Phase 2, the doomed tail: C's link is black-holed, so tail writes
	// reach B at most. Then the primary dies. The tail is acknowledged
	// but not confirmed replicated — each tail write may survive (if it
	// reached B) or not; the oracle brackets rather than pins them.
	pc.Blackhole()
	for i := 0; i < 20; i++ {
		for _, w := range writers {
			w.writeRound(t)
		}
	}
	final := [][]uint64{writers[0].snapshot(), writers[1].snapshot()}
	// The election below expects B ahead of C. Replication is
	// asynchronous, so let the tail reach B before the primary dies.
	if pos, err = ca.ReplPos(); err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 20*time.Second); err != nil {
		t.Fatalf("B never received the tail: %v", err)
	}
	aAddr, aReplAddr := a.s.Addr().String(), a.s.ReplAddr().String()
	a.shutdown()
	pc.Heal()

	// Automatic promotion: the coordinator polls the survivors (the dead
	// primary included — it must end up skipped, not elected), waits out
	// the catch-up window, promotes the most-caught-up replica by
	// epoch-qualified cursor position, and re-points the rest.
	nodes := []cl.Node{
		{Addr: aAddr, ReplAddr: aReplAddr},
		{Addr: b.s.Addr().String(), ReplAddr: b.s.ReplAddr().String()},
		{Addr: c.s.Addr().String(), ReplAddr: c.s.ReplAddr().String()},
	}
	res, err := cl.Failover(nodes, cl.FailoverConfig{CatchUp: 3 * time.Second, Poll: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if res.Promoted != 1 {
		t.Fatalf("promoted node %d, want 1 (B holds the doomed tail)", res.Promoted)
	}
	if res.Epoch == 0 {
		t.Fatalf("promotion did not bump the epoch: %+v", res)
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != 0 {
		t.Fatalf("dead primary not skipped: %+v", res)
	}
	info := waitRole(t, cb, "primary")
	if info.Epoch != res.Epoch {
		t.Fatalf("new primary epoch %d, coordinator reported %d", info.Epoch, res.Epoch)
	}

	// The oracle, part 1: per key on the new primary, the value is
	// bracketed by [confirmed frontier, last acked] — no confirmed write
	// lost, no phantom, and (versions being per-key monotonic) the
	// surviving history is a prefix of what was acknowledged.
	for wi, w := range writers {
		for ki, k := range w.keys {
			v, ok, err := cb.Get(k)
			if err != nil {
				t.Fatalf("oracle GET %s: %v", k, err)
			}
			lo, hi := guaranteed[wi][ki], final[wi][ki]
			if lo > 0 && !ok {
				t.Errorf("%s: confirmed write lost entirely (frontier %d)", k, lo)
				continue
			}
			if v < lo || v > hi {
				t.Errorf("%s = %d, want within [%d, %d]", k, v, lo, hi)
			}
		}
	}

	// The oracle, part 2: the loser converges under the new primary —
	// write on B, gate C on B's position, then compare every key.
	if err := cb.Set("epilogue", uint64(seed)); err != nil {
		t.Fatalf("write on promoted primary: %v", err)
	}
	bpos, err := cb.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.WaitOff(bpos, 20*time.Second); err != nil {
		t.Fatalf("loser never converged on the new primary: %v", err)
	}
	rc := waitRole(t, cc, "replica")
	if rc.Epoch != res.Epoch {
		t.Fatalf("re-pointed replica epoch %d, want %d", rc.Epoch, res.Epoch)
	}
	keys := []string{"epilogue"}
	for _, w := range writers {
		keys = append(keys, w.keys...)
	}
	bvals, err := cb.MGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	cvals, err := cc.MGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if bvals[i] != cvals[i] {
			t.Errorf("diverged after failover: %s = %+v on B, %+v on C", k, bvals[i], cvals[i])
		}
	}

	close(readerStop)
	if err := <-readerDone; err != nil {
		t.Errorf("reader: %v", err)
	}
}
