// Package server implements spectm-server: a TCP key-value service
// whose command set maps one-to-one onto the short-transaction arities
// powering spectm.Map. Every wire command dispatches to a statically
// sized short transaction (see conn.go for the table), so the per-command
// execution path — decode from the connection's reused read buffer, run
// the transaction, encode into the reused write buffer — performs zero
// heap allocations for the hot commands (GET, SET on an existing key,
// DEL, CAS, SWAP2).
//
// The protocol (internal/proto) is RESP-like and fully pipelined: a
// connection may write any number of commands before reading replies,
// and the server flushes its reply buffer exactly when it would
// otherwise block reading more input.
//
// Connections are served by a pool of map threads: engine thread
// descriptors are a bounded resource (Config.MaxThreads) and have no
// unregister operation, so the pool recycles them across connection
// churn instead of registering per accept.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spectm/internal/core"
	"spectm/internal/repl"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
)

// Option configures a Server.
type Option func(*config)

type config struct {
	maxConns int
	shards   int
	buckets  int
	dataDir  string
	fsync    wal.Policy
	topo     Topology
}

// WithMaxConns bounds concurrently served connections (default 64).
// Accepts beyond the bound are refused with an error reply.
func WithMaxConns(n int) Option { return func(c *config) { c.maxConns = n } }

// WithShards sets the map's shard count (see shardmap.WithShards).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithInitialBuckets sets the map's per-shard initial bucket count.
func WithInitialBuckets(n int) Option { return func(c *config) { c.buckets = n } }

// WithPersistence makes the served map durable: mutations append to a
// write-ahead log under dir (fsynced per policy), startup
// recovers the logged state, BGSAVE snapshots and compacts, and
// Shutdown flushes and closes the log after the connection drain.
func WithPersistence(dir string, policy wal.Policy) Option {
	return func(c *config) { c.dataDir, c.fsync = dir, policy }
}

// Server is a spectm-server instance: one engine, one sharded map, one
// listener.
type Server struct {
	cfg config
	e   *core.Engine
	m   *shardmap.Map

	ln      net.Listener
	mu      sync.Mutex
	conns   map[*conn]struct{}
	closing atomic.Bool
	started atomic.Bool    // Serve ran (replication goroutines exist)
	wg      sync.WaitGroup // serveConn goroutines

	// Topology: role/epoch/fencedBy are the conn handlers' lock-free
	// view; src/rep/replLn move under s.mu; topoMu serializes the
	// transitions themselves (PROMOTE, REPLICAOF, Shutdown's teardown).
	role     atomic.Int32
	epoch    atomic.Uint64
	fencedBy atomic.Uint64 // newer epoch that fenced this primary (0 = none)
	topoMu   sync.Mutex
	applyTh  *shardmap.Thread // shared across every Replica this server runs

	src    *repl.Source  // primary side, serving replLn
	rep    *repl.Replica // replica side, tailing the current primary
	replLn net.Listener

	pool threadPool

	accepted atomic.Uint64
	refused  atomic.Uint64
}

// New builds a server (engine + map) without listening yet.
func New(opts ...Option) (*Server, error) {
	cfg := config{maxConns: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxConns < 1 {
		return nil, fmt.Errorf("server: max conns %d < 1", cfg.maxConns)
	}
	cfg.topo = cfg.topo.normalize()
	if err := cfg.topo.validate(cfg.dataDir); err != nil {
		return nil, err
	}
	// +4: accept slop, the persistence thread (recovery + snapshots) and
	// the replication applier. This is capacity only: validation walks
	// the descriptors actually registered (STATS engine_threads), so a
	// generous maxConns costs idle memory, not read latency.
	e, err := core.NewChecked(core.Config{Layout: core.LayoutVal, MaxThreads: cfg.maxConns + 4})
	if err != nil {
		return nil, err
	}
	// Ordered unconditionally: SCAN/ISCAN are part of the command set, and
	// the ordered structure costs nothing until keys are inserted.
	mopts := []shardmap.Option{shardmap.WithOrdered()}
	if cfg.shards > 0 {
		mopts = append(mopts, shardmap.WithShards(cfg.shards))
	}
	if cfg.buckets > 0 {
		mopts = append(mopts, shardmap.WithInitialBuckets(cfg.buckets))
	}
	var m *shardmap.Map
	if cfg.dataDir != "" {
		mopts = append(mopts, shardmap.WithPersistence(cfg.dataDir, cfg.fsync))
		if m, err = shardmap.Open(e, cfg.dataDir, mopts...); err != nil {
			return nil, err
		}
	} else {
		m = shardmap.New(e, mopts...)
	}
	s := &Server{
		cfg:   cfg,
		e:     e,
		m:     m,
		conns: make(map[*conn]struct{}),
	}
	// Epoch: the higher of the configured epoch and anything the WAL
	// replayed (OpEpoch fence records survive restarts). An operator-
	// configured epoch above the persisted one is recorded so it sticks.
	epoch := cfg.topo.Epoch
	if l := m.Log(); l != nil {
		if epoch > l.Epoch() {
			l.AppendEpoch(epoch)
		} else {
			epoch = l.Epoch()
		}
	}
	s.epoch.Store(epoch)
	s.role.Store(int32(cfg.topo.Role))
	switch cfg.topo.Role {
	case RolePrimary:
		if s.src, err = repl.NewSource(m, repl.WithStaleNotify(s.fence)); err != nil {
			m.Close()
			return nil, err
		}
	case RoleReplica:
		s.rep = repl.NewReplica(m, cfg.topo.Primary,
			repl.WithReplicaEpoch(epoch),
			repl.WithEpochNotify(s.adoptEpoch),
			repl.WithApplyThread(s.applyThread()))
	}
	return s, nil
}

// Replica exposes the replication client (nil on a primary).
func (s *Server) Replica() *repl.Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rep
}

// Source exposes the replication source (nil when not streaming).
func (s *Server) Source() *repl.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src
}

// Map exposes the backing map (in-process mixing of direct transactions
// with served traffic, tests, stats).
func (s *Server) Map() *shardmap.Map { return s.m }

// Listen binds the server to addr (e.g. "127.0.0.1:0"), and the
// replication listener to its configured address when the topology
// names one — including on replicas, which serve nothing there until
// promoted but claim the port up front so a promotion cannot fail on a
// bind race.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.topo.ReplListen != "" {
		rln, err := net.Listen("tcp", s.cfg.topo.ReplListen)
		if err != nil {
			ln.Close()
			s.ln = nil
			return err
		}
		s.replLn = rln
	}
	return nil
}

// Addr returns the bound address (after Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ReplAddr returns the bound replication address (after Listen; nil
// when the topology names no replication listener).
func (s *Server) ReplAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replLn == nil {
		return nil
	}
	return s.replLn.Addr()
}

// ErrServerClosed is returned by Serve after a Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections until Shutdown. Call after Listen.
// Transient accept errors (fd exhaustion under a connection burst)
// retry with capped backoff instead of killing the server.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	// The spawn and Shutdown's started check serialize under s.mu: a
	// Shutdown that already latched closing suppresses the spawn, and a
	// spawn that won is visible to Shutdown's check — no window where
	// the replica loop outlives the map it applies into.
	s.mu.Lock()
	if !s.closing.Load() {
		s.started.Store(true)
		if s.src != nil {
			go s.src.Serve(s.replLn)
		}
		if s.rep != nil {
			go s.rep.Run()
		}
	}
	s.mu.Unlock()
	backoff := 5 * time.Millisecond
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			return err
		}
		backoff = 5 * time.Millisecond
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		// The Add must not race Shutdown's Wait: under s.mu it either
		// lands before Shutdown's deadline sweep (counted) or observes
		// closing and refuses the connection.
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// Shutdown closes the listener and drains every connection: each one
// finishes executing the commands it has already read (an in-flight
// pipeline keeps draining until the connection would block on the
// socket), flushes its replies, and closes. Once the drain completes
// the map's write-ahead log (if any) is flushed and closed, so every
// executed command is durable when Shutdown returns. Shutdown returns
// when all connection goroutines have exited.
func (s *Server) Shutdown() error {
	if s.closing.Swap(true) {
		s.wg.Wait()
		return s.m.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	// Stop replication before the map closes: the source drops its
	// replica links, the replica applier checkpoints its cursor behind a
	// final local flush. topoMu serializes this against an in-flight
	// PROMOTE/REPLICAOF — whichever wins, the loser observes closing and
	// backs out, so the teardown below sees the final src/rep. rep.Close
	// must only run when Run exists, since it waits for Run to exit; with
	// started unset only the initial (never-Run) replica can exist, and
	// transitions require a serving server.
	s.topoMu.Lock()
	s.mu.Lock()
	started := s.started.Load()
	src, rep, replLn := s.src, s.rep, s.replLn
	s.src, s.rep, s.replLn = nil, nil, nil
	s.mu.Unlock()
	if replLn != nil {
		replLn.Close()
	}
	if src != nil {
		src.Close()
	}
	if rep != nil && started {
		rep.Close()
	}
	s.topoMu.Unlock()
	s.mu.Lock()
	for c := range s.conns {
		// Unblock a reader parked in a socket read; conn.serve drains
		// buffered commands and exits on the deadline error.
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.m.Close()
}

// track registers a live connection; it reports false (and does not
// register) when the server is already draining.
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// threadPool recycles map threads across connection churn: a LIFO free
// list of parked descriptors plus the count ever created, which
// maxConns bounds.
type threadPool struct {
	sync.Mutex
	free []*shardmap.Thread
	made int
}

// getThread leases a map thread: the most recently parked one, or a new
// one while fewer than maxConns exist. The connection keeps it until it
// closes.
func (s *Server) getThread() (*shardmap.Thread, bool) {
	p := &s.pool
	p.Lock()
	defer p.Unlock()
	if n := len(p.free); n > 0 {
		th := p.free[n-1]
		p.free = p.free[:n-1]
		return th, true
	}
	if p.made >= s.cfg.maxConns {
		return nil, false
	}
	p.made++
	return s.m.NewThread(), true
}

// putThread parks a thread for the next connection.
func (s *Server) putThread(th *shardmap.Thread) {
	p := &s.pool
	p.Lock()
	p.free = append(p.free, th)
	p.Unlock()
}
