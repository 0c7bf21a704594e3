// The primary side. A Source owns a listener-worth of replica links;
// each link gets one sender goroutine (handshake → optional snapshot →
// log tailing) plus one ACK-reader goroutine. Senders read record bytes
// straight from the write-ahead-log file at a cursor offset and learn
// about fresh batches from the log's frontier subscription, so the
// map's mutation hot paths gain no new locks and keep their 0-alloc
// steady state.
package repl

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
)

// SourceOption configures a Source.
type SourceOption func(*srcConfig)

type srcConfig struct {
	heartbeat time.Duration
	onStale   func(epoch uint64)
}

// WithHeartbeat sets the idle PING interval toward replicas (default
// 1s). Tests shrink it to tighten lag reporting.
func WithHeartbeat(d time.Duration) SourceOption {
	return func(c *srcConfig) {
		if d > 0 {
			c.heartbeat = d
		}
	}
}

// WithStaleNotify installs the fencing callback: it fires (possibly
// concurrently) when a replica's handshake carries an epoch above the
// source's own — proof that this primary was superseded by a promotion
// it did not see. The server hooks its demote-to-read-only here.
func WithStaleNotify(f func(epoch uint64)) SourceOption {
	return func(c *srcConfig) { c.onStale = f }
}

// Source streams a persistent map's WAL to replicas.
type Source struct {
	m   *shardmap.Map
	log *wal.Log
	cfg srcConfig

	mu      sync.Mutex
	conns   map[*srcConn]struct{}
	ln      net.Listener
	closing atomic.Bool
	wg      sync.WaitGroup

	fullSyncs atomic.Uint64
}

// NewSource builds a replication source over m, which must be
// persistent: replication ships the write-ahead log, so there has to be
// one.
func NewSource(m *shardmap.Map, opts ...SourceOption) (*Source, error) {
	if m.Log() == nil {
		return nil, errors.New("repl: replication source needs a persistent map (WithPersistence)")
	}
	cfg := srcConfig{heartbeat: defaultHeartbeat}
	for _, o := range opts {
		o(&cfg)
	}
	return &Source{m: m, log: m.Log(), cfg: cfg, conns: make(map[*srcConn]struct{})}, nil
}

// Position returns the primary's absolute replication position: the
// number of records appended to the log. A replica that has applied
// Position records holds every write acknowledged before the call.
func (s *Source) Position() uint64 { return s.log.Seq() }

// ErrSourceClosed is returned by Serve after Close.
var ErrSourceClosed = errors.New("repl: source closed")

// Serve accepts replica links on ln until Close.
func (s *Source) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrSourceClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrSourceClosed
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.HandleConn(nc)
		}()
	}
}

// Close stops accepting, drops every replica link and waits for their
// goroutines. The map and its log are left alone.
func (s *Source) Close() error {
	if s.closing.Swap(true) {
		s.wg.Wait()
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Link states.
const (
	stateHandshake = iota
	stateSnapshot
	stateStreaming
)

// srcConn is one replica link on the primary.
type srcConn struct {
	s  *Source
	nc net.Conn
	rd *proto.Reader
	wr *proto.Writer

	state atomic.Int32

	// Lag accounting. base is the absolute (records, bytes) position of
	// the cursor the stream started at; the replica's ACKs are relative
	// to it.
	baseRecs  atomic.Uint64
	baseBytes atomic.Uint64
	sentBytes atomic.Uint64
	ackRecs   atomic.Uint64
	ackBytes  atomic.Uint64
	lastAck   atomic.Int64 // UnixNano of the newest ACK

	// Sender cursor into the log: generation gen's file, open as f
	// (nil until first read), shipped up to off.
	gen uint64
	off int64
	f   *os.File
	buf []byte
}

// HandleConn serves one replica link synchronously: handshake, optional
// snapshot bootstrap, then the record stream until the link drops or
// the source closes. Exported so tests and embedded setups can skip the
// accept loop.
func (s *Source) HandleConn(nc net.Conn) {
	c := &srcConn{
		s: s, nc: nc,
		rd: proto.NewReader(nc), wr: proto.NewWriter(nc),
	}
	defer nc.Close()
	defer c.closeFile()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	c.serve()
}

func (c *srcConn) serve() {
	nc := c.nc
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	args, err := c.rd.Next()
	if err != nil {
		return
	}
	h, err := parseHello(args)
	if err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})

	// Fencing rule 1: a replica living in a higher epoch proves this
	// primary was deposed. Refuse the link and let the server self-fence.
	epoch := c.s.log.Epoch()
	if h.epoch > epoch {
		if f := c.s.cfg.onStale; f != nil {
			f(h.epoch)
		}
		return
	}

	var cur wal.Cursor
	c.s.log.Cursor(&cur)
	resumed := false
	if h.psync && h.epoch == epoch {
		// Fencing rule 3: a cursor checkpointed under an older epoch may
		// sit on a divergent suffix — only same-epoch resumes are spliced.
		resumed = c.tryResume(h, &cur)
	}
	if !resumed {
		if !c.fullSync(&cur) {
			return
		}
	}

	// ACKs flow back on the same connection; a dedicated reader keeps
	// the sender loop write-only.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			args, err := c.rd.Next()
			if err != nil {
				return
			}
			recs, bytes, err := parseAck(args)
			if err != nil {
				return
			}
			c.ackRecs.Store(recs)
			c.ackBytes.Store(bytes)
			c.lastAck.Store(time.Now().UnixNano())
		}
	}()
	defer nc.Close() // unblock the ACK reader when the sender gives up

	c.state.Store(stateStreaming)
	sub := c.s.log.Subscribe()
	defer c.s.log.Unsubscribe(sub)
	// One heartbeat timer per link, re-armed before each idle wait: with
	// Go 1.23 timers, Reset discards a fire the last wait did not take.
	idle := time.NewTimer(c.s.cfg.heartbeat)
	defer idle.Stop()
	for {
		c.s.log.Cursor(&cur)
		progressed, err := c.ship(&cur)
		if err != nil {
			return
		}
		if progressed {
			continue
		}
		idle.Reset(c.s.cfg.heartbeat)
		select {
		case <-sub.C:
		case <-ackDone:
			return
		case <-idle.C:
			c.wr.Array(3)
			c.wr.Arg(cmdPing)
			c.wr.ArgUint(c.s.log.Seq())
			c.wr.ArgUint(cur.Bytes)
			if c.flush() != nil {
				return
			}
		}
	}
}

// fullSync bootstraps the replica: cursor first, snapshot second, so
// replaying the post-cursor tail over the fuzzy snapshot converges
// (records are absolute assignments; anything the snapshot already
// reflects is re-applied idempotently).
func (c *srcConn) fullSync(cur *wal.Cursor) bool {
	c.s.fullSyncs.Add(1)
	c.state.Store(stateSnapshot)
	c.gen, c.off = cur.Gen, cur.Off
	c.baseRecs.Store(cur.Recs)
	c.baseBytes.Store(cur.Bytes)

	c.wr.Array(6)
	c.wr.Arg(cmdFull)
	c.wr.ArgUint(cur.Gen)
	c.wr.ArgUint(cur.Recs)
	c.wr.ArgUint(cur.Bytes)
	c.wr.ArgUint(uint64(cur.Off))
	c.wr.ArgUint(c.s.log.Epoch())
	if c.flush() != nil {
		return false
	}
	if err := c.s.m.Snapshot(&snapChunker{c: c}); err != nil {
		return false
	}
	c.wr.Array(1)
	c.wr.Arg(cmdSnapEnd)
	return c.flush() == nil
}

// snapChunker adapts the snapshot writer onto SNAP frames.
type snapChunker struct{ c *srcConn }

func (w *snapChunker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := min(len(p), snapChunk)
		w.c.wr.Array(2)
		w.c.wr.Arg(cmdSnap)
		w.c.wr.ArgBytes(p[:n])
		if err := w.c.flush(); err != nil {
			return 0, err
		}
		p = p[n:]
	}
	return total, nil
}

// tryResume validates a PSYNC cursor against the files on disk and, if
// every byte between it and the frontier is still present, accepts the
// resume: CONT with the absolute base position of the replica's cursor,
// computed by frame-walking the pending ranges once.
func (c *srcConn) tryResume(h hello, cur *wal.Cursor) bool {
	if h.gen > cur.Gen || h.gen == 0 {
		return false
	}
	var pendRecs, pendBytes uint64
	for g := h.gen; g <= cur.Gen; g++ {
		start := int64(wal.LogHeaderSize)
		if g == h.gen {
			start = h.off
		}
		limit, ok := c.rangeLimit(g, cur)
		if !ok || start > limit {
			return false
		}
		recs, ok := c.countRange(g, start, limit)
		if !ok {
			return false
		}
		pendRecs += uint64(recs)
		pendBytes += uint64(limit - start)
	}

	// The frontier totals are process-local (they restart at zero with
	// the primary). A cursor taken against a previous incarnation can
	// have more physically pending records than this process has ever
	// appended; subtracting would wrap the base and hand the replica a
	// bogus absolute position — WAITOFF would then admit reads that the
	// gated writes have not reached. Resuming across a primary restart
	// is not worth that: fall back to a full sync, which re-bases
	// cleanly.
	if pendRecs > cur.Recs || pendBytes > cur.Bytes {
		return false
	}

	c.gen, c.off = h.gen, h.off
	c.baseRecs.Store(cur.Recs - pendRecs)
	c.baseBytes.Store(cur.Bytes - pendBytes)

	c.wr.Array(6)
	c.wr.Arg(cmdCont)
	c.wr.ArgUint(h.gen)
	c.wr.ArgUint(c.baseRecs.Load())
	c.wr.ArgUint(c.baseBytes.Load())
	c.wr.ArgUint(uint64(h.off))
	c.wr.ArgUint(c.s.log.Epoch())
	return c.flush() == nil
}

// rangeLimit resolves how far generation g's file reaches: the live
// frontier for the current generation, the final file size for a closed
// one. ok=false means the file is gone (pruned) or unreadable.
func (c *srcConn) rangeLimit(g uint64, cur *wal.Cursor) (int64, bool) {
	if g == cur.Gen {
		return cur.Off, true
	}
	fi, err := os.Stat(c.path(g))
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// countRange frame-walks [start, limit) of generation g's file, counting
// records. The range must hold whole, plausible frames — the replica's
// cursor always sits on a record boundary, so anything else means the
// cursor (or the file) cannot be trusted.
func (c *srcConn) countRange(g uint64, start, limit int64) (int, bool) {
	if start == limit {
		return 0, true
	}
	if start < wal.LogHeaderSize {
		return 0, false
	}
	f, err := os.Open(c.path(g))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	total := 0
	buf := c.growBuf(maxBatch)
	for start < limit {
		n := min(limit-start, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], start); err != nil {
			return 0, false
		}
		used, recs, err := splitRecords(buf[:n])
		if err != nil {
			return 0, false
		}
		if used == 0 {
			// One record larger than the buffer: grow and retry.
			if int64(len(buf)) >= limit-start || len(buf) >= wal.MaxBody+8 {
				return 0, false
			}
			buf = c.growBuf(2 * len(buf))
			continue
		}
		total += recs
		start += int64(used)
	}
	return total, true
}

// ship sends every written byte between the sender's cursor and the
// frontier snapshot, rotating generations as needed. It reports whether
// anything was sent.
//
//spectm:noalloc
func (c *srcConn) ship(cur *wal.Cursor) (bool, error) {
	progressed := false
	for c.gen < cur.Gen {
		// Finish the closed generation at its final file size, then
		// announce the switch.
		fi, err := os.Stat(c.path(c.gen))
		if err != nil {
			return progressed, err // pruned under us: force a resync
		}
		sent, err := c.shipRange(fi.Size())
		progressed = progressed || sent
		if err != nil {
			return progressed, err
		}
		c.closeFile()
		c.gen++
		c.off = wal.LogHeaderSize
		c.wr.Array(2)
		c.wr.Arg(cmdRotate)
		c.wr.ArgUint(c.gen)
		if err := c.flush(); err != nil {
			return progressed, err
		}
		progressed = true
	}
	sent, err := c.shipRange(cur.Off)
	return progressed || sent, err
}

// shipRange streams the sender's generation up to limit, in BATCH
// frames of at most maxBatch bytes. Frames need not end on record
// boundaries — the replica reassembles.
//
//spectm:noalloc
func (c *srcConn) shipRange(limit int64) (bool, error) {
	if c.off >= limit {
		return false, nil
	}
	f, err := c.file()
	if err != nil {
		return false, err
	}
	buf := c.growBuf(maxBatch)
	sent := false
	for c.off < limit {
		n := min(limit-c.off, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], c.off); err != nil {
			return sent, err
		}
		c.wr.Array(4)
		c.wr.Arg(cmdBatch)
		c.wr.ArgUint(c.gen)
		c.wr.ArgUint(uint64(c.off))
		c.wr.ArgBytes(buf[:n])
		if err := c.flush(); err != nil {
			return sent, err
		}
		c.off += n
		c.sentBytes.Add(uint64(n))
		sent = true
	}
	return sent, nil
}

// flush pushes buffered frames with a bounded write deadline, so one
// stuck replica cannot pin a sender (and the snapshot lock) forever.
func (c *srcConn) flush() error {
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := c.wr.Flush()
	c.nc.SetWriteDeadline(time.Time{})
	return err
}

func (c *srcConn) path(gen uint64) string {
	return filepath.Join(c.s.log.Dir(), wal.LogName(gen))
}

// file returns the open handle for the sender's generation, opened once
// per generation and reused for every subsequent ship.
//
//spectm:coldpath
func (c *srcConn) file() (*os.File, error) {
	if c.f != nil {
		return c.f, nil
	}
	f, err := os.Open(c.path(c.gen))
	if err != nil {
		return nil, err
	}
	c.f = f
	return f, nil
}

func (c *srcConn) closeFile() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// growBuf returns a scratch buffer of n bytes, growing the reusable
// backing array only when the high-water mark rises.
//
//spectm:coldpath
func (c *srcConn) growBuf(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// ---- status ----

// LinkStatus describes one replica link as the primary sees it.
type LinkStatus struct {
	Addr       string
	State      string // "handshake", "snapshot" or "streaming"
	SentBytes  uint64
	AckedRecs  uint64
	AckedBytes uint64
	LagRecs    uint64 // records appended on the primary, not yet applied there
	LagBytes   uint64 // written bytes not yet applied there
	LastAckAge time.Duration
}

// SourceStatus is the primary-side replication snapshot.
type SourceStatus struct {
	Position     uint64 // records appended (the WAITOFF coordinate)
	WrittenRecs  uint64
	WrittenBytes uint64
	FullSyncs    uint64
	Epoch        uint64 // cluster epoch the source streams under
	Replicas     []LinkStatus
}

// Status reports the primary position and every replica link's lag.
func (s *Source) Status() SourceStatus {
	var cur wal.Cursor
	s.log.Cursor(&cur)
	st := SourceStatus{
		Position:     s.log.Seq(),
		WrittenRecs:  cur.Recs,
		WrittenBytes: cur.Bytes,
		FullSyncs:    s.fullSyncs.Load(),
		Epoch:        s.log.Epoch(),
	}
	now := time.Now()
	s.mu.Lock()
	for c := range s.conns {
		ls := LinkStatus{
			Addr:       c.nc.RemoteAddr().String(),
			SentBytes:  c.sentBytes.Load(),
			AckedRecs:  c.ackRecs.Load(),
			AckedBytes: c.ackBytes.Load(),
		}
		switch c.state.Load() {
		case stateSnapshot:
			ls.State = "snapshot"
		case stateStreaming:
			ls.State = "streaming"
		default:
			ls.State = "handshake"
		}
		if pos := c.baseRecs.Load() + ls.AckedRecs; st.Position > pos {
			ls.LagRecs = st.Position - pos
		}
		if pos := c.baseBytes.Load() + ls.AckedBytes; st.WrittenBytes > pos {
			ls.LagBytes = st.WrittenBytes - pos
		}
		if t := c.lastAck.Load(); t > 0 {
			ls.LastAckAge = now.Sub(time.Unix(0, t))
		}
		st.Replicas = append(st.Replicas, ls)
	}
	s.mu.Unlock()
	return st
}

// Replicas returns the number of connected replica links.
func (s *Source) Replicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
