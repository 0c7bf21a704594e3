// Scan-under-failover e2e: a real two-process primary/replica pair
// serving SCAN while writes churn, then a genuine SIGKILL of the primary
// and a promotion. After the failover the survivor must serve every
// confirmed-replicated key, in order, at the bumped epoch.
package failover_test

import (
	"fmt"
	"testing"
	"time"

	"spectm/internal/client"
	"spectm/tests/internal/testcluster"
)

func TestScanSurvivesFailover(t *testing.T) {
	seeds := ciSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runScanFailover(t, seed)
		})
	}
}

func runScanFailover(t *testing.T, seed int64) {
	replAddr := testcluster.FreeAddr(t)
	a := testcluster.Start(t, testcluster.Config{
		DataDir: t.TempDir(), Fsync: "every=4", ReplListen: replAddr,
	})
	bRepl := testcluster.FreeAddr(t)
	b := testcluster.Start(t, testcluster.Config{
		DataDir: t.TempDir(), Fsync: "every=4", Primary: replAddr, ReplListen: bRepl,
	})
	ca, cb := a.Client(t), b.Client(t)

	// Seeded churn on the primary with interleaved scans: every key's
	// value encodes its index, so scan results are self-validating.
	const nkeys = 64
	val := func(i, round int) uint64 { return uint64(i)<<20 | uint64(round) }
	rounds := 6 + int(uint64(seed)%5)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < nkeys; i++ {
			if err := ca.Set(fmt.Sprintf("k%03d", i), val(i, round)); err != nil {
				t.Fatalf("SET: %v", err)
			}
		}
		ents, err := ca.Scan("k", "l", 0)
		if err != nil {
			t.Fatalf("primary SCAN: %v", err)
		}
		if len(ents) != nkeys {
			t.Fatalf("primary SCAN round %d: %d keys, want %d", round, len(ents), nkeys)
		}
		for i, e := range ents {
			if e.Key != fmt.Sprintf("k%03d", i) || e.Val>>20 != uint64(i) {
				t.Fatalf("primary SCAN round %d: entry %d = %+v", round, i, e)
			}
		}
	}

	// Confirm the frontier: every write above is on the replica.
	pos, err := ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 30*time.Second); err != nil {
		t.Fatalf("replica never reached the frontier: %v", err)
	}

	// The primary dies for real; the coordinator promotes the survivor.
	a.Kill9(t)
	res, err := client.Failover([]client.Node{
		{Addr: a.Addr, ReplAddr: replAddr},
		{Addr: b.Addr, ReplAddr: bRepl},
	}, client.FailoverConfig{CatchUp: 3 * time.Second, Poll: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if res.Promoted != 1 || res.Epoch == 0 {
		t.Fatalf("promotion = %+v, want node 1 at a bumped epoch", res)
	}
	info, err := cb.Role()
	if err != nil || info.Role != "primary" || info.Epoch != res.Epoch {
		t.Fatalf("survivor ROLE = %+v (%v), want primary at epoch %d", info, err, res.Epoch)
	}

	// Post-promotion SCAN: every confirmed key present, in order, with
	// the final round's values.
	ents, err := cb.Scan("", "", 0)
	if err != nil {
		t.Fatalf("post-promotion SCAN: %v", err)
	}
	if len(ents) != nkeys {
		t.Fatalf("post-promotion SCAN: %d keys, want %d", len(ents), nkeys)
	}
	for i, e := range ents {
		if want := fmt.Sprintf("k%03d", i); e.Key != want {
			t.Fatalf("post-promotion SCAN[%d] = %q, want %q", i, e.Key, want)
		}
		if e.Val != val(i, rounds) {
			t.Fatalf("post-promotion SCAN[%s] = %d, want %d", e.Key, e.Val, val(i, rounds))
		}
	}

	// The promoted primary keeps its ordered index for new writes.
	if err := cb.Set("k999", 12345); err != nil {
		t.Fatalf("post-promotion SET: %v", err)
	}
	ents, err = cb.Scan("k999", "", 0)
	if err != nil || len(ents) != 1 || ents[0].Key != "k999" || ents[0].Val != 12345 {
		t.Fatalf("post-promotion SCAN of a new key: %+v (err %v), want [k999=12345]", ents, err)
	}
}
