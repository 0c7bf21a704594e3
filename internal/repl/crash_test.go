// Failover and crash tests, in the PR-4 style: crashes are simulated by
// file surgery on copies of live directories (a SIGKILL image is
// whatever bytes had reached the files), and recovered state is checked
// against the decoded record prefix — the records themselves are the
// oracle.
package repl

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spectm/internal/rng"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

// copyDir copies every regular file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// foldDir decodes every log file in dir (all generations, in order,
// over the newest valid snapshot) into the reference state — what a
// correct recovery must produce.
func foldDir(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	want := map[string]uint64{}
	_, err := wal.Replay(dir, func(r wal.Record) error {
		switch r.Op {
		case wal.OpDelete:
			delete(want, string(r.Key))
		case wal.OpSwap2:
			want[string(r.Key)] = r.Val >> 2
			want[string(r.Key2)] = r.Val2 >> 2
		default:
			want[string(r.Key)] = r.Val >> 2
		}
		return nil
	})
	if err != nil {
		t.Fatalf("folding %s: %v", dir, err)
	}
	return want
}

// relisten rebinds addr, retrying briefly (the old listener just
// closed).
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplPrimaryCrashMidStream kills the primary mid-stream
// (SIGKILL-equivalent: the surviving state is a file-level copy with a
// torn tail), restarts it over the crash image on the same address, and
// requires the replica — which may be AHEAD of the recovered primary —
// to reconverge onto the recovered history exactly.
func TestReplPrimaryCrashMidStream(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir, []shardmap.Option{shardmap.WithShards(2)},
		WithHeartbeat(30*time.Millisecond))
	addr := p.addr

	rdir := t.TempDir()
	rm, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, addr,
		WithReadTimeout(3*time.Second),
		WithRetry(50*time.Millisecond, 200*time.Millisecond),
		WithCheckpointBytes(512))
	go r.Run()
	defer func() {
		r.Close()
		rm.Close()
	}()

	rnd := rng.New(0xC4A54)
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("k%03d", rnd.Intn(256))
		switch rnd.Intn(10) {
		case 0:
			p.th.Delete(k)
		default:
			p.th.Put(k, word.FromUint(rnd.Next()>>3))
		}
	}
	waitCaughtUp(t, p, r)

	// More writes the replica may or may not have when the axe falls.
	for i := 0; i < 500; i++ {
		p.th.Put(fmt.Sprintf("k%03d", rnd.Intn(256)), word.FromUint(rnd.Next()>>3))
	}
	// Crash: sever the links, image the files, tear a log file's tail.
	p.src.Close()
	crash := copyDir(t, dir)
	p.m.Close() // hygiene only; the original dir is dead to the test
	var logs []string
	ents, _ := os.ReadDir(crash)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") {
			logs = append(logs, filepath.Join(crash, ent.Name()))
		}
	}
	if len(logs) == 0 {
		t.Fatal("no wal files in the crash image")
	}
	victim := logs[int(rnd.Intn(uint64(len(logs))))]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) > wal.LogHeaderSize+40 {
		cut := int64(len(data)) - int64(rnd.Intn(32)) - 1
		if err := os.Truncate(victim, cut); err != nil {
			t.Fatal(err)
		}
	}
	want := foldDir(t, crash)

	// Restart the primary over the crash image, same address.
	p2 := struct {
		m  *shardmap.Map
		th *shardmap.Thread
	}{}
	p2.m, err = shardmap.Open(valEngine(t), crash, shardmap.WithShards(2))
	if err != nil {
		t.Fatalf("recovering the crash image: %v", err)
	}
	p2.th = p2.m.NewThread()
	requireEqualMaps(t, contents(t, p2.m), want, "recovered primary vs decoded prefix")
	src2, err := NewSource(p2.m, WithHeartbeat(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ln2 := relisten(t, addr)
	go src2.Serve(ln2)
	defer func() {
		src2.Close()
		p2.m.Close()
	}()

	// The replica reconnects on its own; it must land exactly on the
	// recovered history (dropping any writes the crash ate). Position
	// coordinates reset with the primary process, so the only honest
	// wait is convergence itself.
	rmth := rm.NewThread()
	waitConverge := func(want map[string]uint64, what string) {
		deadline := time.Now().Add(30 * time.Second)
		for !mapsEqual(dumpMap(rmth), want) {
			if time.Now().After(deadline) {
				requireEqualMaps(t, dumpMap(rmth), want, what)
				t.Fatalf("%s: never converged (%+v)", what, r.Status())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitConverge(want, "replica vs recovered primary")

	// And it keeps following the new incarnation.
	for i := 0; i < 300; i++ {
		p2.th.Put(fmt.Sprintf("post-%03d", i), word.FromUint(uint64(i)))
	}
	waitConverge(contents(t, p2.m), "replica after failover writes")
}

// mapsEqual is the non-fatal form of requireEqualMaps.
func mapsEqual(got, want map[string]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			return false
		}
	}
	return true
}

// TestReplicaResumeAcrossPrimaryRestart: a replica whose cursor
// predates the current primary process must NOT resume — the primary's
// position coordinates restarted with it, and blindly rebasing would
// wrap the base and poison the WAITOFF gate. The primary answers FULL,
// and read-your-writes works against the new incarnation's positions.
func TestReplicaResumeAcrossPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir, []shardmap.Option{shardmap.WithShards(2)})
	addr := p.addr

	// Replica syncs, checkpoints a cursor, and stops — cleanly behind.
	rdir := t.TempDir()
	rm, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, addr, WithCheckpointBytes(256))
	go r.Run()
	for i := 0; i < 500; i++ {
		p.th.Put(fmt.Sprintf("pre-%04d", i), word.FromUint(uint64(i)))
	}
	waitCaughtUp(t, p, r)
	r.Close()
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}

	// Old-incarnation writes the replica never sees: after the restart
	// these are physically pending for its cursor but were never counted
	// by the new process — the exact shape that used to wrap the base.
	for i := 0; i < 400; i++ {
		p.th.Put(fmt.Sprintf("mid-%04d", i), word.FromUint(uint64(i)))
	}

	// Clean primary restart over the same directory: files intact, but
	// the position counters start over.
	p.src.Close()
	if err := p.m.Close(); err != nil {
		t.Fatal(err)
	}
	p2m, err := shardmap.Open(valEngine(t), dir, shardmap.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	p2th := p2m.NewThread()
	src2, err := NewSource(p2m)
	if err != nil {
		t.Fatal(err)
	}
	ln2 := relisten(t, addr)
	go src2.Serve(ln2)
	defer func() {
		src2.Close()
		p2m.Close()
	}()
	for i := 0; i < 300; i++ {
		p2th.Put(fmt.Sprintf("post-%04d", i), word.FromUint(uint64(i)))
	}

	// The restarted replica offers its old cursor; the primary must
	// refuse the cross-incarnation resume and re-bootstrap it.
	rm2, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()
	r2 := NewReplica(rm2, addr)
	go r2.Run()
	defer r2.Close()
	pos := src2.Position()
	if !r2.WaitApplied(pos, 30*time.Second) {
		t.Fatalf("replica stuck at %d, primary at %d (%+v)", r2.AppliedPos(), pos, r2.Status())
	}
	requireEqualMaps(t, contents(t, rm2), contents(t, p2m), "replica after primary restart")
	if st := r2.Status(); st.FullSyncs != 1 {
		t.Errorf("cross-incarnation reconnect did %d full syncs, want exactly 1", st.FullSyncs)
	}
	// The applied position must live in the new primary's coordinate
	// space (a wrapped base would be astronomically large).
	if ap := r2.AppliedPos(); ap > src2.Position() {
		t.Errorf("replica position %d is ahead of the primary's %d — wrapped base", ap, src2.Position())
	}
}

// TestReplicaRestartResume: a cleanly closed replica resumes from its
// persisted cursor — no full resync — and catches up on everything it
// missed while down.
func TestReplicaRestartResume(t *testing.T) {
	p := newPrimary(t, t.TempDir(), nil)
	defer p.stop(t)

	rdir := t.TempDir()
	rm, err := shardmap.Open(valEngine(t), rdir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, p.addr, WithCheckpointBytes(256))
	go r.Run()
	for i := 0; i < 800; i++ {
		p.th.Put(fmt.Sprintf("a-%04d", i), word.FromUint(uint64(i)))
	}
	waitCaughtUp(t, p, r)
	r.Close()
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := loadCursor(rdir); !ok {
		t.Fatal("no cursor persisted by a clean close")
	}

	// The primary moves on while the replica is down.
	for i := 0; i < 800; i++ {
		p.th.Put(fmt.Sprintf("b-%04d", i), word.FromUint(uint64(i)*3))
	}

	rm2, err := shardmap.Open(valEngine(t), rdir)
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()
	r2 := NewReplica(rm2, p.addr)
	go r2.Run()
	defer r2.Close()
	waitCaughtUp2 := func() {
		pos := p.src.Position()
		if !r2.WaitApplied(pos, 30*time.Second) {
			t.Fatalf("restarted replica stuck at %d, primary at %d (%+v)",
				r2.AppliedPos(), pos, r2.Status())
		}
	}
	waitCaughtUp2()
	requireEqualMaps(t, contents(t, rm2), contents(t, p.m), "resumed replica")
	if st := r2.Status(); st.FullSyncs != 0 {
		t.Errorf("clean restart full-synced %d times, want a cursor resume", st.FullSyncs)
	}
}

// TestReplicaDamagedTailFullResync: a replica whose local WAL tail is
// torn mid-record cannot trust its cursor (records below it may be in
// the lost tail); restart must discard the cursor, full-resync, and
// still converge.
func TestReplicaDamagedTailFullResync(t *testing.T) {
	p := newPrimary(t, t.TempDir(), nil)
	defer p.stop(t)

	rdir := t.TempDir()
	rm, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, p.addr, WithCheckpointBytes(256))
	go r.Run()
	for i := 0; i < 600; i++ {
		p.th.Put(fmt.Sprintf("c-%04d", i), word.FromUint(uint64(i)))
	}
	waitCaughtUp(t, p, r)
	r.Close()
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the replica's local log mid-record: find the last record's
	// offset and cut inside it.
	var logPath string
	ents, _ := os.ReadDir(rdir)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") {
			logPath = filepath.Join(rdir, ent.Name())
		}
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[wal.LogHeaderSize:]
	last := 0
	for len(payload) > 0 {
		_, n, err := wal.DecodeRecord(payload)
		if err != nil {
			break
		}
		if len(payload) <= n {
			break // 'last' now indexes the final record
		}
		last += n
		payload = payload[n:]
	}
	cut := wal.LogHeaderSize + last + 5 // inside the final record's frame
	if cut >= len(data) {
		t.Fatalf("torn-tail cut %d beyond file size %d", cut, len(data))
	}
	if err := os.Truncate(logPath, int64(cut)); err != nil {
		t.Fatal(err)
	}

	rm2, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()
	if rm2.RecoveryStats().TruncatedFiles == 0 {
		t.Fatal("surgery failed to register as a truncated tail")
	}
	r2 := NewReplica(rm2, p.addr)
	go r2.Run()
	defer r2.Close()

	// More primary writes, then convergence via full resync.
	for i := 0; i < 200; i++ {
		p.th.Put(fmt.Sprintf("d-%04d", i), word.FromUint(uint64(i)))
	}
	pos := p.src.Position()
	if !r2.WaitApplied(pos, 30*time.Second) {
		t.Fatalf("damaged replica stuck at %d, primary at %d (%+v)",
			r2.AppliedPos(), pos, r2.Status())
	}
	requireEqualMaps(t, contents(t, rm2), contents(t, p.m), "resynced replica")
	if st := r2.Status(); st.FullSyncs == 0 {
		t.Error("damaged replica resumed from an untrustworthy cursor")
	}
}

// TestReplicaCorruptTailFullResync flips a bit mid-log instead of
// truncating: recovery cuts at the damage, the cursor is dropped, and a
// full resync repairs the replica — including keys whose only writes
// sat beyond the corruption.
func TestReplicaCorruptTailFullResync(t *testing.T) {
	p := newPrimary(t, t.TempDir(), nil)
	defer p.stop(t)

	rdir := t.TempDir()
	rm, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(rm, p.addr, WithCheckpointBytes(128))
	go r.Run()
	for i := 0; i < 400; i++ {
		p.th.Put(fmt.Sprintf("e-%04d", i), word.FromUint(uint64(i)))
	}
	waitCaughtUp(t, p, r)
	r.Close()
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}

	var logPath string
	ents, _ := os.ReadDir(rdir)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") {
			logPath = filepath.Join(rdir, ent.Name())
		}
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mid := wal.LogHeaderSize + (len(data)-wal.LogHeaderSize)/2
	data[mid] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rm2, err := shardmap.Open(valEngine(t), rdir, shardmap.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rm2.Close()
	if rm2.RecoveryStats().TruncatedFiles == 0 {
		t.Skip("bit flip landed on a don't-care byte; nothing to test")
	}
	r2 := NewReplica(rm2, p.addr)
	go r2.Run()
	defer r2.Close()
	pos := p.src.Position()
	if !r2.WaitApplied(pos, 30*time.Second) {
		t.Fatalf("corrupt replica stuck at %d, primary at %d (%+v)",
			r2.AppliedPos(), pos, r2.Status())
	}
	requireEqualMaps(t, contents(t, rm2), contents(t, p.m), "resynced replica")
}
