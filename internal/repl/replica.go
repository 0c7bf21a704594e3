// The replica side. A Replica dials the primary's replication
// listener, bootstraps (PSYNC resume when it has a trustworthy cursor,
// SYNC snapshot otherwise) and then applies the record stream through
// the map's idempotent apply path on a single goroutine, acknowledging
// progress and checkpointing its cursor. The loop reconnects with
// backoff until Close.
package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
)

// ReplicaOption configures a Replica.
type ReplicaOption func(*repConfig)

type repConfig struct {
	checkpointBytes uint64
	ackBytes        uint64
	readTimeout     time.Duration
	retryMin        time.Duration
	retryMax        time.Duration
	epoch           uint64
	onEpoch         func(epoch uint64)
	applyTh         *shardmap.Thread
}

// WithCheckpointBytes sets how many applied bytes may pass between
// cursor checkpoints (default 1 MiB). Smaller values tighten the
// restart resume window at the cost of more local fsyncs.
func WithCheckpointBytes(n uint64) ReplicaOption {
	return func(c *repConfig) {
		if n > 0 {
			c.checkpointBytes = n
		}
	}
}

// WithReadTimeout bounds how long the replica waits for any primary
// message before declaring the link dead (default 15s; the primary
// heartbeats every second when idle).
func WithReadTimeout(d time.Duration) ReplicaOption {
	return func(c *repConfig) {
		if d > 0 {
			c.readTimeout = d
		}
	}
}

// WithRetry sets the reconnect backoff bounds (defaults 100ms..2s).
func WithRetry(min, max time.Duration) ReplicaOption {
	return func(c *repConfig) {
		if min > 0 {
			c.retryMin = min
		}
		if max >= min && max > 0 {
			c.retryMax = max
		}
	}
}

// WithReplicaEpoch seeds the replica's cluster epoch. A persistent map's
// recovered epoch still wins if higher; the option exists for
// non-persistent replicas and tests.
func WithReplicaEpoch(e uint64) ReplicaOption {
	return func(c *repConfig) { c.epoch = e }
}

// WithEpochNotify installs a callback fired (from the apply goroutine)
// whenever the replica adopts a higher cluster epoch — from the
// handshake or from an OpEpoch record in the stream. The server mirrors
// its own epoch view here.
func WithEpochNotify(f func(epoch uint64)) ReplicaOption {
	return func(c *repConfig) { c.onEpoch = f }
}

// WithApplyThread makes the replica apply through th instead of
// registering a fresh map thread. Map threads are a bounded resource;
// a server that re-points its replica at runtime (REPLICAOF) reuses one
// thread across Replica instances.
func WithApplyThread(th *shardmap.Thread) ReplicaOption {
	return func(c *repConfig) { c.applyTh = th }
}

// Replica tails one primary into a local map.
type Replica struct {
	m    *shardmap.Map
	th   *shardmap.Thread
	addr string
	cfg  repConfig
	dir  string // cursor directory ("" = no checkpoints)

	mu      sync.Mutex
	cond    *sync.Cond
	cur     cursorFile // stream cursor; Recs/Bytes are the absolute applied position
	have    bool       // cur is valid (resume possible)
	synced  bool       // a handshake completed in this process: cur.Recs is in the live primary's coordinates
	nc      net.Conn   // live connection, for Close to interrupt
	closing bool

	state     atomic.Int32 // stateConnecting/stateSyncing/stateApplying
	primRecs  atomic.Uint64
	primBytes atomic.Uint64
	lastMsg   atomic.Int64  // UnixNano of the newest primary message
	epoch     atomic.Uint64 // cluster epoch (monotonic; see adoptEpoch)
	fullSyncs atomic.Uint64
	done      chan struct{}
	stop      chan struct{} // closed once by Close; interrupts the reconnect backoff

	// apply-loop scratch
	msg      message
	pending  []byte       // partial record reassembly
	recs     []wal.Record // one batch's decoded records, for ApplyEach
	relRecs  uint64       // applied since handshake (ACK coordinates)
	relBytes uint64
	unacked  uint64 // bytes applied since the last ACK
	unsaved  uint64 // bytes applied since the last checkpoint

	// onBatch, when set (tests), runs after every applied BATCH, with
	// the replica at a record-aligned, internally consistent state.
	onBatch func()
}

// Replica states.
const (
	stateConnecting = iota
	stateSyncing
	stateApplying
)

// NewReplica builds a replica of the primary at addr over m. When m is
// persistent, the replication cursor is checkpointed into its data
// directory — unless local recovery found a damaged tail, in which case
// the cursor is discarded and the first session full-syncs (records
// below the cursor may have been lost with the tail). Call Run to
// start.
func NewReplica(m *shardmap.Map, addr string, opts ...ReplicaOption) *Replica {
	cfg := repConfig{
		checkpointBytes: defaultCheckpoint,
		ackBytes:        defaultAckEvery,
		readTimeout:     15 * time.Second,
		retryMin:        100 * time.Millisecond,
		retryMax:        2 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	th := cfg.applyTh
	if th == nil {
		th = m.NewThread()
	}
	r := &Replica{m: m, th: th, addr: addr, cfg: cfg,
		done: make(chan struct{}), stop: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	r.epoch.Store(cfg.epoch)
	if l := m.Log(); l != nil {
		if e := l.Epoch(); e > r.epoch.Load() {
			r.epoch.Store(e)
		}
		r.dir = l.Dir()
		if m.RecoveryStats().TruncatedFiles > 0 {
			// The local tail was damaged: records below the cursor may
			// be gone, so the cursor cannot be trusted.
			dropCursor(r.dir)
		} else if c, ok, _ := loadCursor(r.dir); ok {
			r.cur, r.have = c, true
		}
	}
	return r
}

// Epoch returns the replica's current cluster epoch.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// adoptEpoch raises the replica's epoch to e (monotonic), persists the
// bump into the local WAL and fires the notification callback.
func (r *Replica) adoptEpoch(e uint64) {
	for {
		cur := r.epoch.Load()
		if e <= cur {
			return
		}
		if r.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if l := r.m.Log(); l != nil {
		l.AppendEpoch(e)
	}
	if r.cfg.onEpoch != nil {
		r.cfg.onEpoch(e)
	}
}

// Map returns the map the replica applies into.
func (r *Replica) Map() *shardmap.Map { return r.m }

// Run drives the connect/stream/reconnect loop until Close. It blocks;
// start it on its own goroutine.
func (r *Replica) Run() {
	defer close(r.done)
	backoff := r.cfg.retryMin
	for {
		r.mu.Lock()
		closing := r.closing
		r.mu.Unlock()
		if closing {
			break
		}
		if err := r.session(); err == nil {
			break // closed
		}
		if r.relRecs > 0 || r.relBytes > 0 {
			// The session streamed real progress before the link broke:
			// the primary is alive and this replica was applying, so the
			// next attempt starts from the floor again. (Wall-clock session
			// age is the wrong signal — a link can sit in a long handshake
			// or an idle dial-retry for seconds without ever working.)
			backoff = r.cfg.retryMin
		}
		// Sleep interruptibly: Close must not wait out a multi-second
		// backoff before Run notices the closing flag.
		t := time.NewTimer(backoff)
		select {
		case <-r.stop:
			t.Stop()
		case <-t.C:
		}
		if backoff *= 2; backoff > r.cfg.retryMax {
			backoff = r.cfg.retryMax
		}
	}
	r.checkpoint()
	// Release WAITOFF waiters: applied will never advance again.
	r.mu.Lock()
	r.closing = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Close stops the replica and waits for Run to return (final
// checkpoint included).
func (r *Replica) Close() error {
	r.mu.Lock()
	if !r.closing {
		r.closing = true
		close(r.stop)
	}
	if r.nc != nil {
		r.nc.Close()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	<-r.done
	return nil
}

// errClosed distinguishes a deliberate Close from a broken link.
var errClosed = fmt.Errorf("repl: replica closed")

// session runs one connection: dial, handshake, apply until the link
// breaks. It returns nil only when the replica is closing.
func (r *Replica) session() error {
	// Zero the per-session progress counters up front, not just after the
	// handshake: Run reads them to decide whether THIS session made
	// progress, and a failed dial must not inherit the previous session's.
	r.relRecs, r.relBytes = 0, 0
	r.state.Store(stateConnecting)
	nc, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		nc.Close()
		return errClosed
	}
	r.nc = nc
	r.mu.Unlock()
	defer func() {
		nc.Close()
		r.mu.Lock()
		r.nc = nil
		r.mu.Unlock()
	}()

	rd := proto.NewReader(nc)
	wr := proto.NewWriter(nc)
	// Push pending ACKs out whenever the reader is about to block —
	// the same flush-on-would-block discipline the server uses.
	rd.OnFill = wr.Flush

	// Handshake.
	h := hello{epoch: r.epoch.Load()}
	r.mu.Lock()
	if r.have {
		h.psync = true
		h.gen, h.off = r.cur.Gen, r.cur.Off
	}
	r.mu.Unlock()
	sendHello(wr, h)
	if err := wr.Flush(); err != nil {
		return err
	}

	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	args, err := rd.Next()
	if err != nil {
		return err
	}
	if err := parseMessage(args, &r.msg); err != nil {
		return err
	}
	switch r.msg.kind {
	case 'F', 'C':
		// Fencing rule 2: a stream from an epoch below ours is a deposed
		// primary — reject it (and keep retrying; an operator will
		// re-point us or the old primary will learn its place).
		if e := r.epoch.Load(); r.msg.epoch < e {
			return fmt.Errorf("repl: rejecting stream from stale primary (epoch %d < %d)", r.msg.epoch, e)
		}
		r.adoptEpoch(r.msg.epoch)
		if r.msg.kind == 'F' {
			if err := r.fullSync(nc, rd, &r.msg); err != nil {
				return err
			}
		} else if err := r.resume(&r.msg); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: expected FULL or CONT, got %q", ErrWire, r.msg.kind)
	}

	// Stream.
	r.state.Store(stateApplying)
	r.relRecs, r.relBytes, r.unacked, r.unsaved = 0, 0, 0, 0
	for {
		nc.SetReadDeadline(time.Now().Add(r.cfg.readTimeout))
		args, err := rd.Next()
		if err != nil {
			r.mu.Lock()
			closing := r.closing
			r.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		if err := parseMessage(args, &r.msg); err != nil {
			return err
		}
		r.lastMsg.Store(time.Now().UnixNano())
		switch r.msg.kind {
		case 'B':
			if err := r.applyBatch(&r.msg, wr); err != nil {
				return err
			}
			if r.onBatch != nil {
				r.onBatch()
			}
		case 'R':
			if err := r.rotate(&r.msg); err != nil {
				return err
			}
		case 'P':
			r.primRecs.Store(r.msg.recs)
			r.primBytes.Store(r.msg.bytes)
			// An idle stream is a caught-up stream: let the primary
			// know where we are (and keep its last-ack age fresh).
			r.sendAck(wr)
		default:
			return fmt.Errorf("%w: unexpected mid-stream message %q", ErrWire, r.msg.kind)
		}
	}
}

// resume validates the primary's CONT against our cursor and adopts its
// base as the absolute position.
func (r *Replica) resume(m *message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.have || m.gen != r.cur.Gen || m.off != r.cur.Off {
		return fmt.Errorf("%w: CONT at %d/%d does not match the offered cursor %d/%d",
			ErrWire, m.gen, m.off, r.cur.Gen, r.cur.Off)
	}
	// Absolute positions are primary-process-local: adopt the base the
	// primary computed for our cursor.
	r.cur.Recs, r.cur.Bytes = m.baseRecs, m.baseBytes
	r.synced = true
	// A new session never inherits half a record from a dropped link.
	r.pending = r.pending[:0]
	r.cond.Broadcast()
	return nil
}

// fullSync bootstraps from a snapshot stream, then sweeps keys the
// snapshot did not contain (a re-bootstrapped replica may hold state
// the primary has since lost or deleted).
func (r *Replica) fullSync(nc net.Conn, rd *proto.Reader, m *message) error {
	r.state.Store(stateSyncing)
	r.fullSyncs.Add(1)
	if r.dir != "" {
		// A crash between here and the next checkpoint must resync.
		dropCursor(r.dir)
	}
	r.mu.Lock()
	r.have = false
	r.cur = cursorFile{Gen: m.gen, Off: m.off, Recs: m.baseRecs, Bytes: m.baseBytes}
	r.pending = r.pending[:0]
	r.mu.Unlock()

	keep := make(map[string]struct{}, 1024)
	sr := &snapFrameReader{nc: nc, rd: rd, msg: &r.msg, timeout: r.cfg.readTimeout}
	// Apply every snapshot record — entries and index definitions alike.
	// Only entry keys join the keep-sweep set: index definitions are
	// idempotent metadata, not keys the sweep should preserve or delete.
	_, err := wal.ReadSnapshotRecords(sr, func(rec wal.Record) error {
		if err := r.th.Apply(rec); err != nil {
			return err
		}
		if rec.Op == wal.OpPut {
			keep[string(rec.Key)] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The snapshot decoder stops exactly at the trailer, so the SNAPEND
	// frame may still be on the wire; drain it (unless a read-ahead
	// already did).
	if !sr.done {
		nc.SetReadDeadline(time.Now().Add(r.cfg.readTimeout))
		args, err := rd.Next()
		if err != nil {
			return err
		}
		if err := parseMessage(args, &r.msg); err != nil {
			return err
		}
		if r.msg.kind != 'E' {
			return fmt.Errorf("%w: expected SNAPEND, got %q", ErrWire, r.msg.kind)
		}
	}

	// Sweep: collect stale keys first (Range holds shard locks), then
	// delete them.
	var stale []string
	r.th.Range(func(key string, _ shardmap.Value) bool {
		if _, ok := keep[key]; !ok {
			stale = append(stale, key)
		}
		return true
	})
	for _, k := range stale {
		r.th.Delete(k)
	}

	r.mu.Lock()
	r.have = true
	r.synced = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// snapFrameReader adapts SNAP frames into the io.Reader the snapshot
// decoder wants, stopping cleanly at SNAPEND.
type snapFrameReader struct {
	nc      net.Conn
	rd      *proto.Reader
	msg     *message
	timeout time.Duration
	stash   []byte
	done    bool
}

func (s *snapFrameReader) Read(p []byte) (int, error) {
	for len(s.stash) == 0 {
		if s.done {
			return 0, io.EOF
		}
		s.nc.SetReadDeadline(time.Now().Add(s.timeout))
		args, err := s.rd.Next()
		if err != nil {
			return 0, err
		}
		if err := parseMessage(args, s.msg); err != nil {
			return 0, err
		}
		switch s.msg.kind {
		case 'S':
			s.stash = append(s.stash[:0], s.msg.payload...)
		case 'E':
			s.done = true
			return 0, io.EOF
		default:
			return 0, fmt.Errorf("%w: unexpected message %q inside snapshot", ErrWire, s.msg.kind)
		}
	}
	n := copy(p, s.stash)
	s.stash = s.stash[n:]
	return n, nil
}

// applyBatch reassembles the log's byte range, applies every whole
// record, and advances the cursor to the applied (record-aligned)
// boundary. The records are decoded once and applied in stream order
// through Thread.ApplyEach, which walks the chains of a window of
// records' keys together before it applies them, so the batch takes its
// cache misses overlapped; an epoch record splits the batch, taking
// effect after the records before it and before the ones after it.
func (r *Replica) applyBatch(m *message, wr *proto.Writer) error {
	// Only this goroutine writes r.cur, so reading it needs no lock.
	if m.gen != r.cur.Gen {
		return fmt.Errorf("%w: batch generation %d, cursor at %d", ErrWire, m.gen, r.cur.Gen)
	}
	if expect := r.cur.Off + int64(len(r.pending)); m.off != expect {
		return fmt.Errorf("%w: batch offset %d, expected %d (gap or replay)", ErrWire, m.off, expect)
	}

	buf := append(r.pending, m.payload...)
	consumed, applied := 0, 0
	r.recs = r.recs[:0]
	for {
		rec, n, err := wal.DecodeRecord(buf[consumed:])
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				if err := r.th.ApplyEach(r.recs); err != nil {
					return err
				}
				return fmt.Errorf("repl: corrupt record in stream: %w", err)
			}
			break // short: the tail continues in the next batch
		}
		consumed += n
		applied++
		if rec.Op != wal.OpEpoch {
			r.recs = append(r.recs, rec)
			continue
		}
		// A mid-stream promotion on the primary (or an epoch it itself
		// adopted): fencing metadata, not a mutation.
		if err := r.th.ApplyEach(r.recs); err != nil {
			return err
		}
		r.recs = r.recs[:0]
		r.adoptEpoch(rec.Val)
	}
	if err := r.th.ApplyEach(r.recs); err != nil {
		return err
	}
	r.pending = append(buf[:0], buf[consumed:]...)

	r.mu.Lock()
	r.cur.Off += int64(consumed)
	r.cur.Recs += uint64(applied)
	r.cur.Bytes += uint64(consumed)
	r.cond.Broadcast()
	r.mu.Unlock()

	r.relRecs += uint64(applied)
	r.relBytes += uint64(consumed)
	r.unacked += uint64(consumed)
	r.unsaved += uint64(consumed)
	if r.unacked >= r.cfg.ackBytes {
		r.sendAck(wr)
	}
	if r.unsaved >= r.cfg.checkpointBytes {
		r.checkpoint()
		r.unsaved = 0
	}
	return nil
}

// rotate switches the cursor to the next generation. A pending partial
// record must have completed: generations end on record boundaries.
func (r *Replica) rotate(m *message) error {
	if len(r.pending) != 0 {
		return fmt.Errorf("%w: rotation with %d unframed bytes", ErrWire, len(r.pending))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gen != r.cur.Gen+1 {
		return fmt.Errorf("%w: rotation to %d from %d", ErrWire, m.gen, r.cur.Gen)
	}
	r.cur.Gen, r.cur.Off = m.gen, wal.LogHeaderSize
	return nil
}

// sendAck reports cumulative stream-relative progress. The write lands
// in the writer's buffer; OnFill flushes it before the next blocking
// read.
func (r *Replica) sendAck(wr *proto.Writer) {
	wr.Array(3)
	wr.Arg(cmdAck)
	wr.ArgUint(r.relRecs)
	wr.ArgUint(r.relBytes)
	r.unacked = 0
}

// checkpoint flushes the local write-ahead log and then persists the
// cursor, in that order: the cursor must never cover records the local
// disk could lose, so a failed flush keeps the older (safe) cursor.
func (r *Replica) checkpoint() {
	if r.dir == "" {
		return
	}
	r.mu.Lock()
	ok, snap := r.have, r.cur
	r.mu.Unlock()
	if !ok {
		return
	}
	if l := r.m.Log(); l != nil {
		if err := l.Flush(); err != nil {
			return
		}
	}
	saveCursor(r.dir, &snap)
}

// WaitApplied blocks until the replica has applied at least pos records
// of the primary's history (the primary's REPLPOS coordinate), the
// timeout passes, or the replica closes. It reports whether the
// position was reached — the read-your-writes gate.
//
// Positions are primary-process-local, so the gate answers only once a
// handshake in this process has put the cursor into the live primary's
// coordinates: a restarted replica holding a stale persisted position
// times out instead of waving stale reads through.
func (r *Replica) WaitApplied(pos uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.synced || !r.have || r.cur.Recs < pos {
		if r.closing {
			return false
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.AfterFunc(remain, r.cond.Broadcast)
		r.cond.Wait()
		t.Stop()
	}
	return true
}

// AppliedPos returns the absolute applied position (records).
func (r *Replica) AppliedPos() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Recs
}

// ReplicaStatus is the replica-side replication snapshot.
type ReplicaStatus struct {
	Primary      string
	State        string // "connecting", "syncing" or "streaming"
	AppliedRecs  uint64 // absolute position applied
	AppliedBytes uint64
	PrimaryRecs  uint64 // last position the primary reported
	PrimaryBytes uint64
	LagRecs      uint64
	FullSyncs    uint64
	Epoch        uint64 // cluster epoch the replica lives in
	LastMsgAge   time.Duration
}

// Status reports the link state and applied position.
func (r *Replica) Status() ReplicaStatus {
	st := ReplicaStatus{
		Primary:     r.addr,
		PrimaryRecs: r.primRecs.Load(), PrimaryBytes: r.primBytes.Load(),
		FullSyncs: r.fullSyncs.Load(),
		Epoch:     r.epoch.Load(),
	}
	switch r.state.Load() {
	case stateSyncing:
		st.State = "syncing"
	case stateApplying:
		st.State = "streaming"
	default:
		st.State = "connecting"
	}
	r.mu.Lock()
	st.AppliedRecs, st.AppliedBytes = r.cur.Recs, r.cur.Bytes
	r.mu.Unlock()
	if st.PrimaryRecs > st.AppliedRecs {
		st.LagRecs = st.PrimaryRecs - st.AppliedRecs
	}
	if t := r.lastMsg.Load(); t > 0 {
		st.LastMsgAge = time.Since(time.Unix(0, t))
	}
	return st
}
