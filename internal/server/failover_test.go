// Failover end-to-end at the server layer, driven through the typed
// client: operator promotion, epoch bumps, demotion via REPLICAOF, and
// the write fence on a deposed primary.
package server

import (
	"strings"
	"testing"
	"time"

	cl "spectm/internal/client"
	"spectm/internal/wal"
)

// dialc connects the typed client to a server's data listener.
func dialc(t *testing.T, s *Server) *cl.Client {
	t.Helper()
	c, err := cl.Dial(s.Addr().String(), cl.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatalf("dial %s: %v", s.Addr(), err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitRole polls until the server's ROLE reply (via c) matches.
func waitRole(t *testing.T, c *cl.Client, role string) cl.RoleInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last cl.RoleInfo
	for time.Now().Before(deadline) {
		info, err := c.Role()
		if err == nil && info.Role == role {
			return info
		}
		last = info
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("role never became %q (last %+v)", role, last)
	return cl.RoleInfo{}
}

func TestServerPromoteFailoverAndFence(t *testing.T) {
	// A: primary. B: promotable replica of A (own replication listener).
	a := startServer(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{ReplListen: "127.0.0.1:0"}))
	b := startServer(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{Primary: a.ReplAddr().String(), ReplListen: "127.0.0.1:0"}))

	ca, cb := dialc(t, a), dialc(t, b)

	// Writes land on A and replicate to B; B refuses writes.
	for i := uint64(0); i < 50; i++ {
		if err := ca.Set("k"+strings.Repeat("x", int(i%3)), i); err != nil {
			t.Fatalf("SET on primary: %v", err)
		}
	}
	pos, err := ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(pos, 10*time.Second); err != nil {
		t.Fatalf("replica catch-up: %v", err)
	}
	if err := cb.Set("nope", 1); !cl.IsReadOnly(err) {
		t.Fatalf("replica write returned %v, want READONLY", err)
	}

	// ROLE agrees on the shape.
	ra := waitRole(t, ca, "primary")
	rb := waitRole(t, cb, "replica")
	if ra.Epoch != 0 || rb.Epoch != 0 {
		t.Fatalf("initial epochs (%d, %d), want (0, 0)", ra.Epoch, rb.Epoch)
	}
	if rb.Link != "streaming" {
		t.Fatalf("replica link %q, want streaming", rb.Link)
	}

	// Operator failover: PROMOTE B.
	epoch, err := cb.Promote()
	if err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("promotion epoch %d, want 1", epoch)
	}
	rb = waitRole(t, cb, "primary")
	if rb.Epoch != 1 {
		t.Fatalf("promoted epoch %d, want 1", rb.Epoch)
	}
	if err := cb.Set("after-promote", 7); err != nil {
		t.Fatalf("write on promoted primary: %v", err)
	}
	if _, err := cb.Promote(); err == nil {
		t.Fatal("PROMOTE on a primary succeeded")
	}

	// Demote A under the new primary; it must adopt epoch 1 and serve
	// B's post-promotion writes.
	if err := ca.ReplicaOf(b.ReplAddr().String()); err != nil {
		t.Fatalf("REPLICAOF: %v", err)
	}
	ra = waitRole(t, ca, "replica")
	bpos, err := cb.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.WaitOff(bpos, 10*time.Second); err != nil {
		t.Fatalf("demoted primary catch-up: %v", err)
	}
	if v, ok, err := ca.Get("after-promote"); err != nil || !ok || v != 7 {
		t.Fatalf("demoted primary Get(after-promote) = (%d,%v,%v), want 7", v, ok, err)
	}
	if err := ca.Set("nope", 1); !cl.IsReadOnly(err) {
		t.Fatalf("demoted primary write returned %v, want READONLY", err)
	}
	ra = waitRole(t, ca, "replica")
	if ra.Epoch != 1 {
		t.Fatalf("demoted primary epoch %d, want 1", ra.Epoch)
	}

	// Counter-promotion: A becomes primary at epoch 2. Its first
	// replica handshake against B (epoch 1) must FENCE B — the stale
	// primary refuses writes from then on.
	if _, err := ca.Promote(); err != nil {
		t.Fatalf("counter-promotion: %v", err)
	}
	ra = waitRole(t, ca, "primary")
	if ra.Epoch != 2 {
		t.Fatalf("counter-promotion epoch %d, want 2", ra.Epoch)
	}
	// Carry epoch 2 back to B's source: point B's old listener at a
	// replica that knows the new epoch — i.e. tell B to tail A, then
	// change our mind and promote... simpler: a replica of A re-points
	// to B. Use A itself: a REPLICAOF handshake from A's map is not
	// available, so spin up C as the messenger.
	c := startServer(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{Primary: a.ReplAddr().String()}))
	cc := dialc(t, c)
	waitRole(t, cc, "replica")
	apos, err := ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.WaitOff(apos, 10*time.Second); err != nil {
		t.Fatalf("messenger catch-up: %v", err)
	}
	rc, err := cc.Role()
	if err != nil || rc.Epoch != 2 {
		t.Fatalf("messenger epoch %d (%v), want 2", rc.Epoch, err)
	}
	// C (epoch 2) dials B (epoch 1): B's source must refuse and fence.
	if err := cc.ReplicaOf(b.ReplAddr().String()); err != nil {
		t.Fatalf("re-point messenger: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.FencedBy() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := b.FencedBy(); got != 2 {
		t.Fatalf("stale primary fenced by %d, want 2", got)
	}
	err = cb.Set("split-brain", 666)
	if !cl.IsStale(err) {
		t.Fatalf("fenced primary write returned %v, want STALE", err)
	}
	// REPLSTATUS surfaces the fence.
	status, err := cb.ReplStatus()
	if err != nil || !strings.Contains(status, "fenced_by 2") {
		t.Fatalf("REPLSTATUS missing fence (err %v):\n%s", err, status)
	}

	// The way out: the fenced primary demotes under the real primary and
	// converges.
	if err := cb.ReplicaOf(a.ReplAddr().String()); err != nil {
		t.Fatalf("fenced primary demotion: %v", err)
	}
	waitRole(t, cb, "replica")
	if err := ca.Set("final", 42); err != nil {
		t.Fatalf("write on final primary: %v", err)
	}
	apos, err = ca.ReplPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.WaitOff(apos, 10*time.Second); err != nil {
		t.Fatalf("ex-fenced replica catch-up: %v", err)
	}
	if v, ok, err := cb.Get("final"); err != nil || !ok || v != 42 {
		t.Fatalf("converged replica Get(final) = (%d,%v,%v), want 42", v, ok, err)
	}
}

// TestServerDetach: REPLICAOF NO ONE makes a replica writable without
// bumping the epoch.
func TestServerDetach(t *testing.T) {
	a := startServer(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{ReplListen: "127.0.0.1:0"}))
	b := startServer(t,
		WithPersistence(t.TempDir(), wal.EveryN(4)),
		WithTopology(Topology{Primary: a.ReplAddr().String()}))

	ca, cb := dialc(t, a), dialc(t, b)
	if err := ca.Set("k", 5); err != nil {
		t.Fatal(err)
	}
	pos, _ := ca.ReplPos()
	if err := cb.WaitOff(pos, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	if err := cb.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	info := waitRole(t, cb, "standalone")
	if info.Epoch != 0 {
		t.Fatalf("detach bumped epoch to %d", info.Epoch)
	}
	if err := cb.Set("local", 1); err != nil {
		t.Fatalf("write after detach: %v", err)
	}
	// Idempotent.
	if err := cb.Detach(); err != nil {
		t.Fatalf("second Detach: %v", err)
	}
}

// TestTopologyValidation pins the constructor errors.
func TestTopologyValidation(t *testing.T) {
	cases := map[string][]Option{
		"repl-listen-without-datadir": {WithTopology(Topology{ReplListen: "127.0.0.1:0"})},
		"replica-without-primary":     {WithTopology(Topology{Role: RoleReplica})},
		"primary-with-primary":        {WithTopology(Topology{Role: RolePrimary, Primary: "x:1", ReplListen: "127.0.0.1:0"})},
		"primary-without-listener":    {WithTopology(Topology{Role: RolePrimary})},
	}
	for name, opts := range cases {
		if _, err := New(opts...); err == nil {
			t.Errorf("%s: New accepted an invalid topology", name)
		}
	}
	// A listener alone, with the role left zero, normalizes to a primary.
	dir := t.TempDir()
	s, err := New(WithPersistence(dir, wal.EveryN(4)), WithTopology(Topology{ReplListen: "127.0.0.1:0"}))
	if err != nil {
		t.Fatalf("listener-only topology: %v", err)
	}
	if role, _ := s.Role(); role != RolePrimary {
		t.Fatalf("listener-only topology role = %v, want primary", role)
	}
	s.Map().Close()
}
