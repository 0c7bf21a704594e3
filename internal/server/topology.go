// Topology: the server's place in a replication cluster, and the
// runtime transitions between places. Construction takes a single typed
// Topology value (WithTopology); the admin commands PROMOTE and
// REPLICAOF move a running server between roles with epoch fencing —
// see the promotion state machine in DESIGN.md "Failover".
package server

import (
	"errors"
	"fmt"
	"net"

	"spectm/internal/repl"
	"spectm/internal/shardmap"
)

// Role is the server's replication role.
type Role uint8

const (
	// RoleStandalone serves reads and writes with no replication.
	RoleStandalone Role = iota
	// RolePrimary serves reads and writes and streams its WAL to
	// replicas on the replication listener.
	RolePrimary
	// RoleReplica refuses writes and continuously applies a primary's
	// record stream.
	RoleReplica
)

// String renders the role the way ROLE and REPLSTATUS report it.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return "standalone"
	}
}

// Topology is the server's replication configuration: its role, the
// cluster epoch it starts in, the primary it tails (replicas) and the
// replication listener it serves (primaries — and replicas that must be
// promotable, since a promoted node has to feed the other replicas).
type Topology struct {
	Role       Role
	Epoch      uint64 // initial cluster epoch (a persisted epoch still wins if higher)
	Primary    string // replication address of the primary to tail (RoleReplica)
	ReplListen string // replication listener address (requires persistence)
}

// normalize derives the role when the zero value was left in place:
// naming a primary makes a replica, naming only a listener makes a
// primary.
func (t Topology) normalize() Topology {
	if t.Role == RoleStandalone {
		switch {
		case t.Primary != "":
			t.Role = RoleReplica
		case t.ReplListen != "":
			t.Role = RolePrimary
		}
	}
	return t
}

// validate rejects contradictory topologies at construction.
func (t Topology) validate(dataDir string) error {
	switch t.Role {
	case RoleReplica:
		if t.Primary == "" {
			return errors.New("server: replica topology without a primary address")
		}
	case RolePrimary, RoleStandalone:
		if t.Primary != "" {
			return fmt.Errorf("server: %s topology names a primary", t.Role)
		}
	default:
		return fmt.Errorf("server: unknown role %d", t.Role)
	}
	if t.ReplListen != "" && dataDir == "" {
		return errors.New("server: a replication listener requires persistence (replication ships the write-ahead log)")
	}
	if t.Role == RolePrimary && t.ReplListen == "" {
		return errors.New("server: primary topology without a replication listener")
	}
	return nil
}

// WithTopology sets the server's replication topology.
func WithTopology(t Topology) Option {
	return func(c *config) { c.topo = t }
}

// ---- runtime role state ----

// Role mirror for the writable() hot path: an atomic int32 the conn
// handlers load without locks. Values match the public Role constants.
const (
	roleStandalone = int32(RoleStandalone)
	rolePrimary    = int32(RolePrimary)
	roleReplica    = int32(RoleReplica)
)

// Role returns the server's current role and cluster epoch.
func (s *Server) Role() (Role, uint64) {
	return Role(s.role.Load()), s.epoch.Load()
}

// FencedBy returns the epoch that fenced this primary (0 when not
// fenced): a replica handshake proved a newer promotion exists, so
// writes are refused until an operator demotes or re-promotes.
func (s *Server) FencedBy() uint64 { return s.fencedBy.Load() }

// fence is the Source's stale-primary callback.
func (s *Server) fence(epoch uint64) {
	// Latch the highest fencing epoch observed.
	for {
		cur := s.fencedBy.Load()
		if epoch <= cur {
			return
		}
		if s.fencedBy.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// adoptEpoch mirrors a replica-side epoch adoption into the server.
func (s *Server) adoptEpoch(epoch uint64) {
	for {
		cur := s.epoch.Load()
		if epoch <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// applyThread returns the shared replication apply thread, creating it
// on first use. Map threads are a bounded resource with no unregister,
// so every Replica instance this server ever runs shares one.
func (s *Server) applyThread() *shardmap.Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applyTh == nil {
		s.applyTh = s.m.NewThread()
	}
	return s.applyTh
}

// errNotServing guards runtime transitions: they spawn goroutines whose
// lifecycle Shutdown owns, so the server must be serving.
var errNotServing = errors.New("server: topology changes require a serving server")

// Promote makes this replica the primary: the current replica loop is
// stopped, the cluster epoch is bumped, recorded in the WAL and flushed
// (the fence must be durable before the first write is acknowledged),
// and — when a replication listener is configured — the server starts
// streaming to replicas. It returns the new epoch. Promoting a primary
// is an error; the PROMOTE admin command maps here.
func (s *Server) Promote() (uint64, error) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.closing.Load() || !s.started.Load() {
		return 0, errNotServing
	}
	if s.role.Load() == rolePrimary {
		return 0, errors.New("server: already primary")
	}
	return s.becomePrimaryLocked(true)
}

// Detach (REPLICAOF NO ONE) stops tailing a primary and makes the
// server writable without bumping the epoch — the operator's escape
// hatch, not a failover. Idempotent.
func (s *Server) Detach() error {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.closing.Load() || !s.started.Load() {
		return errNotServing
	}
	if s.role.Load() != roleReplica {
		return nil
	}
	_, err := s.becomePrimaryLocked(false)
	return err
}

// ReplicaOf re-points the server at the primary whose replication
// listener is at addr: any current source stops streaming, any current
// replica loop is replaced, writes are refused from here on. The
// REPLICAOF admin command maps here.
func (s *Server) ReplicaOf(addr string) error {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.closing.Load() || !s.started.Load() {
		return errNotServing
	}

	// A demoted primary stops feeding its replicas: its history may be
	// about to diverge from the new primary's.
	s.stopSourceLocked()
	s.stopReplicaLocked()

	rep := repl.NewReplica(s.m, addr,
		repl.WithReplicaEpoch(s.epoch.Load()),
		repl.WithEpochNotify(s.adoptEpoch),
		repl.WithApplyThread(s.applyThread()))
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return errNotServing
	}
	s.rep = rep
	s.mu.Unlock()
	// Becoming a replica clears a fence: writes are refused by role now.
	s.role.Store(roleReplica)
	s.fencedBy.Store(0)
	go rep.Run()
	return nil
}

// becomePrimaryLocked is the shared promote/detach tail. Caller holds
// topoMu.
func (s *Server) becomePrimaryLocked(bumpEpoch bool) (uint64, error) {
	s.stopReplicaLocked()

	epoch := s.epoch.Load()
	if bumpEpoch {
		epoch++
		if l := s.m.Log(); l != nil {
			// The fence record must be durable before this node
			// acknowledges writes under the new epoch: a crash right
			// after promotion must come back knowing it was promoted.
			l.AppendEpoch(epoch)
			if err := l.Flush(); err != nil {
				return 0, fmt.Errorf("server: persisting epoch %d: %w", epoch, err)
			}
		}
		s.epoch.Store(epoch)
	}

	if s.cfg.topo.ReplListen != "" {
		if err := s.startSourceLocked(); err != nil {
			return 0, err
		}
	}
	s.fencedBy.Store(0)
	if s.cfg.topo.ReplListen != "" {
		s.role.Store(rolePrimary)
	} else {
		s.role.Store(roleStandalone)
	}
	return epoch, nil
}

// startSourceLocked (re)binds the replication listener if needed and
// starts a Source on it. Caller holds topoMu.
func (s *Server) startSourceLocked() error {
	s.mu.Lock()
	if s.src != nil {
		s.mu.Unlock()
		return nil
	}
	ln := s.replLn
	s.mu.Unlock()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", s.cfg.topo.ReplListen); err != nil {
			return fmt.Errorf("server: binding replication listener: %w", err)
		}
	}
	src, err := repl.NewSource(s.m, repl.WithStaleNotify(s.fence))
	if err != nil {
		ln.Close()
		return err
	}
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		src.Close()
		return errNotServing
	}
	s.src, s.replLn = src, ln
	s.mu.Unlock()
	go src.Serve(ln)
	return nil
}

// stopSourceLocked closes the current source (which closes the
// replication listener it serves). Caller holds topoMu.
func (s *Server) stopSourceLocked() {
	s.mu.Lock()
	src := s.src
	s.src = nil
	if src != nil {
		s.replLn = nil // Source.Close closes the listener it serves
	}
	s.mu.Unlock()
	if src != nil {
		src.Close()
	}
}

// stopReplicaLocked closes the current replica loop. Caller holds
// topoMu; every replica reaching here has a running Run loop (initial
// replicas are started by Serve, transition replicas by ReplicaOf, and
// transitions require a serving server).
func (s *Server) stopReplicaLocked() {
	s.mu.Lock()
	rep := s.rep
	s.rep = nil
	s.mu.Unlock()
	if rep != nil {
		rep.Close()
	}
}
