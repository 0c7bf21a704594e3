// Epoch-fencing tests: the three fencing rules documented in repl.go,
// epoch adoption and persistence, and the PSYNC-across-epochs fallback.
package repl

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// TestFenceRule1SourceRefusesNewerEpoch: a hello carrying a higher
// epoch than the source's proves a newer promotion exists — the source
// must refuse the link and fire the stale callback (the server demotes
// itself on it).
func TestFenceRule1SourceRefusesNewerEpoch(t *testing.T) {
	var staleAt atomic.Uint64
	p := newPrimary(t, t.TempDir(), nil, WithStaleNotify(func(e uint64) { staleAt.Store(e) }))
	defer p.stop(t)
	p.th.Put("seed", word.FromUint(1))

	r := newReplica(t, p.addr, WithReplicaEpoch(5), WithRetry(10*time.Millisecond, 20*time.Millisecond))
	defer r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for staleAt.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := staleAt.Load(); got != 5 {
		t.Fatalf("stale callback got epoch %d, want 5", got)
	}
	// The link must never reach a sync: the stale primary ships nothing.
	if st := r.Status(); st.FullSyncs != 0 || st.State == "streaming" {
		t.Fatalf("newer-epoch replica synced from a stale primary: %+v", st)
	}
}

// TestFenceRule2ReplicaRejectsStaleStream: a FULL whose epoch is below
// the replica's must be rejected even if the (buggy or raced) source
// offered it. Driven against a scripted fake source.
func TestFenceRule2ReplicaRejectsStaleStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func(nc net.Conn) {
				defer nc.Close()
				rd := proto.NewReader(nc)
				if _, err := rd.Next(); err != nil { // hello
					return
				}
				// FULL at epoch 0 — below the replica's 5.
				w := proto.NewWriter(nc)
				w.Array(6)
				w.Arg("FULL")
				w.ArgUint(1) // gen
				w.ArgUint(0) // recs
				w.ArgUint(0) // bytes
				w.ArgUint(wal.LogHeaderSize)
				w.ArgUint(0) // epoch: stale
				w.Flush()
				// The replica must hang up on us rather than sync.
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 1)
				nc.Read(buf)
			}(nc)
		}
	}()

	r := newReplica(t, ln.Addr().String(), WithReplicaEpoch(5), WithRetry(10*time.Millisecond, 20*time.Millisecond))
	defer r.Close()

	// Wait for at least two connection attempts: the first rejection
	// must have happened, and the replica keeps retrying rather than
	// accepting the stale stream.
	for i := 0; i < 2; i++ {
		select {
		case <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatalf("replica stopped dialing after %d attempts", i)
		}
	}
	if st := r.Status(); st.FullSyncs != 0 {
		t.Fatalf("replica accepted a stale-epoch stream: %+v", st)
	}
	if got := r.Epoch(); got != 5 {
		t.Fatalf("replica epoch %d, want 5 untouched", got)
	}
}

// TestEpochAdoptionStreamsAndNotifies: an epoch appended on the primary
// mid-stream reaches the replica as an OpEpoch record; the replica
// adopts it, fires the notify callback, and never hands the record to
// the map.
func TestEpochAdoptionStreamsAndNotifies(t *testing.T) {
	p := newPrimary(t, t.TempDir(), nil)
	defer p.stop(t)
	p.th.Put("a", word.FromUint(1))

	var notified atomic.Uint64
	r := newReplica(t, p.addr, WithEpochNotify(func(e uint64) { notified.Store(e) }))
	defer r.Close()
	waitCaughtUp(t, p, r)

	p.m.Log().AppendEpoch(3)
	p.th.Put("b", word.FromUint(2))
	waitCaughtUp(t, p, r)

	if got := r.Epoch(); got != 3 {
		t.Fatalf("replica epoch %d, want 3", got)
	}
	if got := notified.Load(); got != 3 {
		t.Fatalf("epoch notify got %d, want 3", got)
	}
	requireEqualMaps(t, contents(t, r.Map()), map[string]uint64{"a": 1, "b": 2}, "replica after epoch bump")
}

// TestEpochSurvivesRestart: an adopted epoch is persisted via the WAL
// (OpEpoch record) and recovered by replay on both sides.
func TestEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir, nil)
	p.th.Put("k", word.FromUint(9))
	p.m.Log().AppendEpoch(7)
	p.stop(t)

	m, err := shardmap.Open(valEngine(t), dir, shardmap.WithPersistence(dir, wal.EveryN(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Log().Epoch(); got != 7 {
		t.Fatalf("recovered epoch %d, want 7", got)
	}
	// The fence record is metadata: it must not have materialized a key.
	requireEqualMaps(t, contents(t, m), map[string]uint64{"k": 9}, "recovered map")
}

// TestPSYNCAcrossEpochsFallsBackToFullSync: a cursor taken at an older
// epoch may sit on a deposed primary's divergent suffix, so the source
// honors PSYNC only at its exact epoch.
func TestPSYNCAcrossEpochsFallsBackToFullSync(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	p := newPrimary(t, pdir, nil)
	defer p.stop(t)
	for i := 0; i < 20; i++ {
		p.th.Put(string(rune('a'+i)), word.FromUint(uint64(i)))
	}

	// First replica incarnation: persistent, catches up at epoch 0.
	rm, err := shardmap.Open(valEngine(t), rdir, shardmap.WithPersistence(rdir, wal.EveryN(8)))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, p.addr)
	go r.Run()
	waitCaughtUp(t, p, r)
	r.Close()
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}

	// The cluster moves on: a promotion elsewhere bumped the epoch.
	p.m.Log().AppendEpoch(2)
	p.th.Put("post", word.FromUint(99))

	// Second incarnation resumes from its checkpoint — but its cursor is
	// from epoch 0, so the source must force a full sync.
	rm2, err := shardmap.Open(valEngine(t), rdir, shardmap.WithPersistence(rdir, wal.EveryN(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()
	r2 := NewReplica(rm2, p.addr)
	go r2.Run()
	defer r2.Close()
	waitCaughtUp(t, p, r2)

	if st := r2.Status(); st.FullSyncs != 1 {
		t.Fatalf("cross-epoch reconnect did %d full syncs, want 1 (PSYNC must not resume)", st.FullSyncs)
	}
	if got := r2.Epoch(); got != 2 {
		t.Fatalf("replica epoch %d, want 2", got)
	}
	want := contents(t, p.m)
	requireEqualMaps(t, contents(t, rm2), want, "replica after cross-epoch full sync")
}

// TestPickCandidate pins the election policy: epoch dominates applied
// position; applied breaks ties; index breaks the rest.
func TestPickCandidate(t *testing.T) {
	cases := []struct {
		name  string
		cands []Candidate
		want  int
	}{
		{"empty", nil, -1},
		{"single", []Candidate{{Applied: 10, Epoch: 1}}, 0},
		{"most-applied", []Candidate{{Applied: 5, Epoch: 1}, {Applied: 50, Epoch: 1}, {Applied: 20, Epoch: 1}}, 1},
		{"epoch-dominates", []Candidate{{Applied: 1000, Epoch: 1}, {Applied: 3, Epoch: 2}}, 1},
		{"tie-lowest-index", []Candidate{{Applied: 7, Epoch: 1}, {Applied: 7, Epoch: 1}}, 0},
		{"seeded-lag", []Candidate{{Applied: 830, Epoch: 1}, {Applied: 999, Epoch: 1}, {Applied: 400, Epoch: 1}}, 1},
	}
	for _, tc := range cases {
		if got := PickCandidate(tc.cands); got != tc.want {
			t.Errorf("%s: PickCandidate = %d, want %d", tc.name, got, tc.want)
		}
	}
}
