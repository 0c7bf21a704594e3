// The live log. A Log owns one append-only file per generation plus a
// single background syncer goroutine — the only goroutine that ever
// touches the file. Mutating map operations append framed records to
// one in-memory buffer under one mutex (no allocation in the steady
// state: the buffer and its spare are recycled forever) and kick the
// syncer; the syncer swaps the buffer out, writes it, and fsyncs
// according to the Policy. Under Always the appending operation blocks
// until the group commit that covers its record has fsynced.
package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when appended records are fsynced.
type Policy struct {
	kind byte
	n    int
	d    time.Duration
}

const (
	kindUnset = iota
	kindAlways
	kindEveryN
	kindInterval
)

// Always makes every mutation block until its record is durable: the
// syncer batches whatever has accumulated, fsyncs once, and releases
// every waiter covered by the batch (group commit).
func Always() Policy { return Policy{kind: kindAlways} }

// EveryN fsyncs once at least every n appended records. Mutations never
// block; up to n acknowledged records can be lost in a crash. A quiet
// tail shorter than n is synced by the 1s backstop tick, Flush or Close.
func EveryN(n int) Policy {
	if n < 1 {
		n = 1
	}
	return Policy{kind: kindEveryN, n: n}
}

// Interval fsyncs at most every d. Mutations never block; up to d worth
// of acknowledged records can be lost in a crash.
func Interval(d time.Duration) Policy {
	if d <= 0 {
		d = time.Second
	}
	return Policy{kind: kindInterval, d: d}
}

// DefaultPolicy is used when options leave the policy unset.
func DefaultPolicy() Policy { return Interval(time.Second) }

// String renders the policy in the -fsync flag syntax.
func (p Policy) String() string {
	switch p.kind {
	case kindAlways:
		return "always"
	case kindEveryN:
		return fmt.Sprintf("every=%d", p.n)
	case kindInterval:
		return fmt.Sprintf("interval=%s", p.d)
	default:
		return "default"
	}
}

// ParsePolicy parses the -fsync flag syntax: "always", "every=N" or
// "interval=DURATION" (e.g. interval=100ms).
func ParsePolicy(s string) (Policy, error) {
	switch {
	case s == "always":
		return Always(), nil
	case len(s) > 6 && s[:6] == "every=":
		var n int
		if _, err := fmt.Sscanf(s[6:], "%d", &n); err != nil || n < 1 {
			return Policy{}, fmt.Errorf("wal: bad fsync policy %q: every=N needs N >= 1", s)
		}
		return EveryN(n), nil
	case len(s) > 9 && s[:9] == "interval=":
		d, err := time.ParseDuration(s[9:])
		if err != nil || d <= 0 {
			return Policy{}, fmt.Errorf("wal: bad fsync policy %q: interval=D needs a positive duration", s)
		}
		return Interval(d), nil
	default:
		return Policy{}, fmt.Errorf("wal: unknown fsync policy %q (want always, every=N or interval=D)", s)
	}
}

// File is the syncer's view of a log file. *os.File satisfies
// it; fault-injection harnesses (internal/nemesis) wrap it to simulate
// torn writes, slow disks and write errors without touching the kernel.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy (default: Interval(1s)).
	Policy Policy
	// CompactAfter triggers the OnFull callback once the live log file
	// exceeds this many bytes (default 128 MiB; <0 disables).
	CompactAfter int64
	// OnFull is called (from its own goroutine, never concurrently with
	// itself) when the log exceeds CompactAfter. The map hooks its
	// snapshot-and-prune here.
	OnFull func()
	// StartGen is the generation the fresh log file is created under.
	// Recovery passes maxGen+1 so no existing file is ever reopened for
	// writing. Zero means 1.
	StartGen uint64
	// Epoch seeds the cluster epoch (failover fencing). Recovery passes
	// ReplayStats.Epoch; zero means the log starts at epoch 0 until an
	// OpEpoch record is appended.
	Epoch uint64
	// WrapFile, when set, wraps every log file the Log creates. The hook
	// exists for deterministic disk-fault injection; production leaves it
	// nil.
	WrapFile func(File) File
}

// Log is a live write-ahead log. All methods are safe for concurrent
// use; the typed append methods are allocation-free in the steady
// state.
type Log struct {
	dir  string
	opts Options

	// Append state: buf, recs and the seq assignment are guarded by mu;
	// spare and f are owned by the syncer.
	mu    sync.Mutex
	buf   []byte
	recs  int
	spare []byte
	f     File // current generation's file

	gen   atomic.Uint64 // current generation
	seq   atomic.Uint64 // global append sequence (Always group commit)
	size  atomic.Int64  // bytes in the live log file (rotation trigger)
	epoch atomic.Uint64 // cluster epoch (failover fencing)

	// Always-policy group commit: waiters block until durableSeq covers
	// their append.
	syncMu     sync.Mutex
	syncCond   *sync.Cond
	durableSeq uint64
	ioErr      error

	unsynced   atomic.Int64 // records written but not yet fsynced
	compacting atomic.Bool

	// Written frontier + subscriptions (see subscribe.go). Updated only
	// by the syncer, after the file writes it describes.
	curMu sync.Mutex
	cur   Cursor
	subs  []*Sub

	kick     chan struct{}
	flushReq chan chan error
	rotReq   chan chan rotResult
	quit     chan struct{}
	done     chan struct{}
	closed   atomic.Bool
}

type rotResult struct {
	gen uint64
	err error
}

// logName is the file name of generation gen's log.
func logName(gen uint64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// snapName is the file name of generation gen's snapshot.
func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d.db", gen) }

var walMagic = [8]byte{'S', 'P', 'T', 'M', 'W', 'A', 'L', '1'}

const logHeaderSize = 16 // magic + gen(8)

// appendLogHeader frames a log file header.
func appendLogHeader(dst []byte, gen uint64) []byte {
	dst = append(dst, walMagic[:]...)
	return binary.LittleEndian.AppendUint64(dst, gen)
}

// createLogFile creates generation gen's log file, writes its header
// and applies the WrapFile hook.
func createLogFile(dir string, gen uint64, wrap func(File) File) (File, error) {
	osf, err := os.OpenFile(filepath.Join(dir, logName(gen)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var f File = osf
	if wrap != nil {
		f = wrap(f)
	}
	if _, err := f.Write(appendLogHeader(nil, gen)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs the directory itself, making renames and creates
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open creates a Log over dir with a fresh file at opts.StartGen and
// starts the syncer. The caller replays existing state first (see
// Replay) and passes a StartGen above every existing generation.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Policy.kind == kindUnset {
		opts.Policy = DefaultPolicy()
	}
	if opts.CompactAfter == 0 {
		opts.CompactAfter = 128 << 20
	}
	if opts.StartGen == 0 {
		opts.StartGen = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		kick:     make(chan struct{}, 1),
		flushReq: make(chan chan error),
		rotReq:   make(chan chan rotResult),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.syncCond = sync.NewCond(&l.syncMu)
	l.gen.Store(opts.StartGen)
	l.epoch.Store(opts.Epoch)
	l.cur = Cursor{Gen: opts.StartGen, Off: logHeaderSize}
	f, err := createLogFile(dir, opts.StartGen, opts.WrapFile)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.size.Store(logHeaderSize)
	go l.run()
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Gen returns the current generation.
func (l *Log) Gen() uint64 { return l.gen.Load() }

// Size returns the byte size of the live log file (excluding
// snapshots), the rotation trigger.
func (l *Log) Size() int64 { return l.size.Load() }

// Err returns the latched I/O error, if any. After an I/O error the log
// stops syncing: the map keeps serving from memory, durability is lost.
func (l *Log) Err() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.ioErr
}

// Put appends a "key ← val" record.
func (l *Log) Put(key string, val uint64) {
	l.append(OpPut, key, val, "", 0)
}

// Delete appends a removal record.
func (l *Log) Delete(key string) {
	l.append(OpDelete, key, 0, "", 0)
}

// CAS appends a successful compare-and-swap record (key ← new value).
func (l *Log) CAS(key string, val uint64) {
	l.append(OpCAS, key, val, "", 0)
}

// Swap2 appends one atomic swap record: k1 ← v1, k2 ← v2.
func (l *Log) Swap2(k1 string, v1 uint64, k2 string, v2 uint64) {
	l.append(OpSwap2, k1, v1, k2, v2)
}

// Epoch returns the current cluster epoch.
func (l *Log) Epoch() uint64 { return l.epoch.Load() }

// AppendEpoch records a cluster-epoch bump: an OpEpoch record is
// appended (so recovery and downstream replicas learn the epoch) and
// the live epoch is raised. Bumps are monotonic — a stale epoch is
// ignored. Callers that must not acknowledge writes under the new epoch
// before it is durable follow with Flush.
func (l *Log) AppendEpoch(e uint64) {
	for {
		cur := l.epoch.Load()
		if e <= cur {
			return
		}
		if l.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	l.append(OpEpoch, "", e, "", 0)
}

//spectm:noalloc
func (l *Log) append(op byte, k1 string, v1 uint64, k2 string, v2 uint64) {
	if l.closed.Load() {
		return
	}
	l.mu.Lock()
	l.buf = appendRecord(l.buf, op, k1, v1, k2, v2)
	l.recs++
	seq := l.seq.Add(1)
	l.mu.Unlock()

	select {
	case l.kick <- struct{}{}:
	default:
	}
	if l.opts.Policy.kind == kindAlways {
		l.waitDurable(seq)
	}
}

// waitDurable blocks until the group commit covering seq has fsynced
// (or the log fails or closes).
func (l *Log) waitDurable(seq uint64) {
	l.syncMu.Lock()
	for l.durableSeq < seq && l.ioErr == nil && !l.closed.Load() {
		l.syncCond.Wait()
	}
	l.syncMu.Unlock()
}

// Flush forces everything appended so far onto disk (write + fsync),
// regardless of policy. It returns the latched I/O error, if any.
func (l *Log) Flush() error {
	ch := make(chan error, 1)
	select {
	case l.flushReq <- ch:
		select {
		case err := <-ch:
			return err
		case <-l.done:
			return l.Err()
		}
	case <-l.done:
		return l.Err()
	}
}

// Rotate flushes the current generation, fsyncs and closes its file,
// and switches to a fresh generation. It returns the new generation —
// the one a snapshot taken after the rotation must be tagged with.
func (l *Log) Rotate() (uint64, error) {
	ch := make(chan rotResult, 1)
	select {
	case l.rotReq <- ch:
		select {
		case r := <-ch:
			return r.gen, r.err
		case <-l.done:
			return 0, fmt.Errorf("wal: closed during rotate")
		}
	case <-l.done:
		return 0, fmt.Errorf("wal: rotate after close")
	}
}

// Close flushes and fsyncs everything, closes the file and stops the
// syncer. Appends after Close are dropped.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		<-l.done
		return l.Err()
	}
	close(l.quit)
	<-l.done
	l.syncCond.Broadcast() // release any straggling Always waiters
	return l.Err()
}

// ---- syncer ----

// run is the single file-writing goroutine.
func (l *Log) run() {
	defer close(l.done)
	// The backstop tick bounds how long a quiet tail stays unsynced
	// under EveryN, and paces Interval.
	tick := time.Second
	if l.opts.Policy.kind == kindInterval && l.opts.Policy.d < tick {
		tick = l.opts.Policy.d
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastSync := time.Now()

	for {
		select {
		case <-l.quit:
			l.gatherWrite(true, &lastSync)
			l.finalClose()
			return
		case <-l.kick:
			l.gatherWrite(false, &lastSync)
		case <-ticker.C:
			l.gatherWrite(false, &lastSync)
		case ch := <-l.flushReq:
			l.gatherWrite(true, &lastSync)
			ch <- l.Err()
		case ch := <-l.rotReq:
			gen, err := l.rotate(&lastSync)
			ch <- rotResult{gen, err}
		}
	}
}

// gatherWrite swaps out the pending buffer, writes it, and fsyncs when
// the policy (or force) says so.
func (l *Log) gatherWrite(force bool, lastSync *time.Time) {
	if l.Err() != nil {
		// Durability already lost; drop buffered data so memory stays
		// bounded.
		l.mu.Lock()
		l.buf, l.recs = l.buf[:0], 0
		l.mu.Unlock()
		return
	}
	if testHookBatchSeq != nil {
		testHookBatchSeq()
	}
	// The watermark is read in the same critical section as the swap,
	// and every append assigns its seq under mu: each record with seq <=
	// batchSeq is in this round's buffer or an earlier round's.
	l.mu.Lock()
	b, n, batchSeq := l.buf, l.recs, l.seq.Load()
	if len(b) > 0 {
		l.buf, l.spare, l.recs = l.spare[:0], nil, 0
	}
	l.mu.Unlock()
	if len(b) > 0 {
		if _, err := l.f.Write(b); err != nil {
			l.fail(fmt.Errorf("wal: writing %s: %w", l.f.Name(), err))
			return
		}
		l.size.Add(int64(len(b)))
		l.spare = b[:0]
		// Publish the frontier as soon as the bytes are readable from
		// the file — replication ships written records; fsync below
		// only decides the primary's own durability.
		l.advanceCursor(int64(len(b)), n)
	}
	pending := l.unsynced.Add(int64(n))
	if pending == 0 {
		return
	}
	p := l.opts.Policy
	doSync := force ||
		p.kind == kindAlways ||
		(p.kind == kindEveryN && pending >= int64(p.n)) ||
		time.Since(*lastSync) >= l.syncEvery()
	if !doSync {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync %s: %w", l.f.Name(), err))
		return
	}
	l.unsynced.Add(-pending)
	*lastSync = time.Now()
	// Every record with seq <= batchSeq was written by this round or an
	// earlier one, and the file was just fsynced.
	l.advanceDurable(batchSeq)

	if l.opts.CompactAfter > 0 && l.opts.OnFull != nil &&
		l.size.Load() > l.opts.CompactAfter &&
		l.compacting.CompareAndSwap(false, true) {
		go func() {
			defer l.compacting.Store(false)
			l.opts.OnFull()
		}()
	}
}

// testHookBatchSeq, when set by a test before Open, runs at the start
// of every syncer round — widening the kick→swap window that a racing
// append can land in.
var testHookBatchSeq func()

// advanceDurable raises the group-commit watermark and wakes waiters.
func (l *Log) advanceDurable(seq uint64) {
	l.syncMu.Lock()
	if seq > l.durableSeq {
		l.durableSeq = seq
		l.syncCond.Broadcast()
	}
	l.syncMu.Unlock()
}

// syncEvery is the policy's time bound on unsynced data.
func (l *Log) syncEvery() time.Duration {
	if l.opts.Policy.kind == kindInterval {
		return l.opts.Policy.d
	}
	return time.Second // EveryN backstop
}

// rotate is the syncer-side generation switch.
func (l *Log) rotate(lastSync *time.Time) (uint64, error) {
	l.gatherWrite(true, lastSync)
	if err := l.Err(); err != nil {
		return 0, err
	}
	newGen := l.gen.Load() + 1
	f, err := createLogFile(l.dir, newGen, l.opts.WrapFile)
	if err != nil {
		return 0, err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		os.Remove(f.Name())
		return 0, err
	}
	// Point of no return: once the syncer writes to the new-generation
	// file, the generation counter must advance with it — otherwise a
	// later Rotate would recompute the same newGen and O_TRUNC a file
	// holding live (possibly fsynced and acknowledged) records. So the
	// swap, the counter and the size reset happen before the old file's
	// fallible close.
	old := l.f
	l.f = f
	l.gen.Store(newGen)
	l.size.Store(logHeaderSize)
	l.rotateCursor(newGen)
	if err := old.Close(); err != nil {
		return 0, err
	}
	return newGen, nil
}

// finalClose runs after the last gatherWrite on shutdown.
func (l *Log) finalClose() {
	l.f.Close()
	// Everything appended before Close is durable; release waiters.
	l.syncMu.Lock()
	l.durableSeq = l.seq.Load()
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// fail latches the first I/O error and releases every waiter.
func (l *Log) fail(err error) {
	l.syncMu.Lock()
	if l.ioErr == nil {
		l.ioErr = err
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// CommitSnapshot writes a snapshot for generation gen: the caller's
// write function streams entries into a temporary file, which is
// fsynced and renamed to snap-<gen>.db; older generations' logs and
// snapshots are then pruned. Call after Rotate returned gen.
func (l *Log) CommitSnapshot(gen uint64, write func(*SnapshotWriter) error) error {
	tmp, err := os.CreateTemp(l.dir, "tmp-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	sw := NewSnapshotWriter(tmp, gen)
	if err := write(sw); err != nil {
		tmp.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, snapName(gen))); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	return l.prune(gen)
}

// prune removes log and snapshot files of generations below keep.
func (l *Log) prune(keep uint64) error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, ent := range ents {
		gen, kind := parseName(ent.Name())
		if (kind != fileLog && kind != fileSnap) || gen >= keep {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, ent.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
