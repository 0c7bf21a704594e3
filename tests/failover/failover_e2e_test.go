// The failover smoke: three seeded nemesis schedules against a real
// three-process cluster. Replicas tail the primary through
// fault-injecting proxies; the seeded schedule partitions, black-holes
// and slows the links mid-traffic; then the primary dies to a genuine
// SIGKILL and the coordinator (client.Failover) promotes the
// most-caught-up replica by epoch-qualified cursor position. After
// every run the oracle verifies the acceptance invariants: no
// acknowledged-durable (confirmed-replicated) write is lost, per-key
// reads stay within the acknowledged prefix, and the survivors converge
// at a bumped epoch. The schedule is a pure function of the seed, so a
// failing interleaving replays bit for bit; the in-process twin with a
// reader thread and finer phases is internal/server's nemesis test.
package failover_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"spectm/internal/client"
	"spectm/internal/nemesis"
	"spectm/tests/internal/testcluster"
)

// ciSeeds are the three schedules CI's failover-smoke job replays;
// -short runs the first only.
var ciSeeds = []int64{0x0D15EA5E, 2, 3}

func TestFailoverNemesisSmoke(t *testing.T) {
	seeds := ciSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runSeed(t, seed)
		})
	}
}

func runSeed(t *testing.T, seed int64) {
	cfg := nemesis.Config{Targets: 2, Events: 6, Horizon: 500 * time.Millisecond}
	sched := nemesis.Generate(seed, cfg)
	if again := nemesis.Generate(seed, cfg); !reflect.DeepEqual(sched, again) {
		t.Fatalf("schedule for seed %d is not deterministic", seed)
	}

	// A: primary. B, C: promotable replicas dialing A through proxies.
	replAddr := testcluster.FreeAddr(t)
	a := testcluster.Start(t, testcluster.Config{
		DataDir: t.TempDir(), Fsync: "every=4", ReplListen: replAddr,
	})
	pb, err := nemesis.NewProxy("127.0.0.1:0", replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	pc, err := nemesis.NewProxy("127.0.0.1:0", replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	proxies := []*nemesis.Proxy{pb, pc}

	bRepl, cRepl := testcluster.FreeAddr(t), testcluster.FreeAddr(t)
	b := testcluster.Start(t, testcluster.Config{
		DataDir: t.TempDir(), Fsync: "every=4", Primary: pb.Addr(), ReplListen: bRepl,
	})
	c := testcluster.Start(t, testcluster.Config{
		DataDir: t.TempDir(), Fsync: "every=4", Primary: pc.Addr(), ReplListen: cRepl,
	})

	ca, cb, cc := a.Client(t), b.Client(t), c.Client(t)

	// Writers hammer A (per-key monotonic versions) while the nemesis
	// plays the seeded schedule against the replication proxies.
	const nkeys = 4
	keys := make([]string, nkeys)
	acked := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	playDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc := a.Client(t)
		for {
			select {
			case <-playDone:
				return
			default:
			}
			for i, k := range keys {
				if err := wc.Set(k, acked[i]+1); err != nil {
					t.Errorf("SET %s: %v", k, err)
					return
				}
				acked[i]++
			}
			time.Sleep(time.Millisecond)
		}
	}()
	nemesis.Play(sched, func(e nemesis.Event) {
		t.Logf("nemesis @%v: %v target=%d dur=%v", e.At, e.Kind, e.Target, e.Dur)
		proxies[e.Target].Apply(e)
	}, nil)
	close(playDone)
	wg.Wait()

	// Heal, then establish the confirmed frontier: every write below it
	// is on BOTH replicas and must survive the failover.
	pb.Heal()
	pc.Heal()
	pos, err := ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 30*time.Second); err != nil {
		t.Fatalf("B never reached the frontier: %v", err)
	}
	if err := cc.WaitOff(pos, 30*time.Second); err != nil {
		t.Fatalf("C never reached the frontier: %v", err)
	}
	guaranteed := append([]uint64(nil), acked...)

	// Doomed tail: C's link is black-holed so the tail reaches B at
	// most, then the primary dies to a real SIGKILL mid-stream.
	pc.Blackhole()
	for r := 0; r < 20; r++ {
		for i, k := range keys {
			if err := ca.Set(k, acked[i]+1); err != nil {
				t.Fatalf("tail SET: %v", err)
			}
			acked[i]++
		}
	}
	// The election below expects B ahead of C. Replication is
	// asynchronous, so let the tail reach B before the primary dies.
	if pos, err = ca.ReplPos(); err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 30*time.Second); err != nil {
		t.Fatalf("B never received the tail: %v", err)
	}
	a.Kill9(t)
	pc.Heal()

	// Automatic promotion over the survivors; the dead primary must end
	// up skipped, and B (holding the tail) must win the cursor race.
	nodes := []client.Node{
		{Addr: a.Addr, ReplAddr: replAddr},
		{Addr: b.Addr, ReplAddr: bRepl},
		{Addr: c.Addr, ReplAddr: cRepl},
	}
	res, err := client.Failover(nodes, client.FailoverConfig{
		CatchUp: 3 * time.Second, Poll: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if res.Promoted != 1 {
		t.Fatalf("promoted node %d, want 1 (B holds the doomed tail): %+v", res.Promoted, res)
	}
	if res.Epoch == 0 {
		t.Fatalf("promotion did not bump the epoch: %+v", res)
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != 0 {
		t.Fatalf("dead primary not skipped: %+v", res)
	}

	// Oracle: per key on the new primary the value is bracketed by
	// [confirmed frontier, last acked] — no confirmed write lost, no
	// phantom, surviving history a prefix of what was acknowledged.
	info, err := cb.Role()
	if err != nil || info.Role != "primary" || info.Epoch != res.Epoch {
		t.Fatalf("new primary ROLE = %+v (%v), want primary at epoch %d", info, err, res.Epoch)
	}
	for i, k := range keys {
		v, ok, err := cb.Get(k)
		if err != nil {
			t.Fatalf("oracle GET %s: %v", k, err)
		}
		if guaranteed[i] > 0 && !ok {
			t.Errorf("%s: confirmed write lost entirely (frontier %d)", k, guaranteed[i])
			continue
		}
		if v < guaranteed[i] || v > acked[i] {
			t.Errorf("%s = %d, want within [%d, %d]", k, v, guaranteed[i], acked[i])
		}
	}

	// Convergence: the loser tails the new primary and matches it.
	if err := cb.Set("epilogue", uint64(seed)); err != nil {
		t.Fatalf("write on promoted primary: %v", err)
	}
	bpos, err := cb.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.WaitOff(bpos, 30*time.Second); err != nil {
		t.Fatalf("loser never converged on the new primary: %v", err)
	}
	rinfo, err := cc.Role()
	if err != nil || rinfo.Role != "replica" || rinfo.Epoch != res.Epoch {
		t.Fatalf("re-pointed replica ROLE = %+v (%v), want replica at epoch %d", rinfo, err, res.Epoch)
	}
	all := append(append([]string(nil), keys...), "epilogue")
	bvals, err := cb.MGet(all...)
	if err != nil {
		t.Fatal(err)
	}
	cvals, err := cc.MGet(all...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range all {
		if bvals[i] != cvals[i] {
			t.Errorf("diverged after failover: %s = %+v on B, %+v on C", k, bvals[i], cvals[i])
		}
	}
}
