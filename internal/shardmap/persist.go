// Durability. A persistent Map logs every committed mutation to one
// write-ahead log (internal/wal) from the operation's post-commit path
// and can snapshot its full contents; Open rebuilds a map from the
// newest snapshot plus the surviving log tail. The shards are STM and
// resize domains only; the log does not see them.
//
// The hot paths stay allocation-free: a log append encodes the typed
// record into the log's reused buffer under a short mutex, and the wal
// syncer goroutine recycles that buffer forever. Under the EveryN and
// Interval fsync policies the mutating operation never blocks; under
// Always it waits for the group commit covering its record.
//
// Durable ordering is the append order. Appends happen after the STM
// commit, serialized by the log mutex, so two writers racing on the
// same key in the same instant may persist in either order — recovery
// then holds one of the two committed values. This is the paper's trade
// in one more guise: a strictly commit-ordered log would need
// sequencing inside the commit critical section (and its cost on every
// operation); the specialized map gives that generality up. See
// DESIGN.md "Durability" for the full invariant.
package shardmap

import (
	"errors"
	"fmt"
	"io"

	"spectm/internal/core"
	"spectm/internal/wal"
)

// WithPersistence makes the map durable: mutations append typed records
// to a write-ahead log under dir, fsynced per policy (the zero Policy means
// wal.DefaultPolicy, interval=1s). Construction replays any existing
// state in dir first. Use Open for the error-returning form.
func WithPersistence(dir string, policy wal.Policy) Option {
	return func(c *config) { c.dir, c.policy = dir, policy }
}

// WithCompactAfter sets the log-size threshold (bytes) that triggers an
// automatic snapshot + log compaction (default 128 MiB, <0 disables).
func WithCompactAfter(n int64) Option {
	return func(c *config) { c.compactAfter = n }
}

// WithLogWrap installs a wal.File wrapper around every log file the
// map's write-ahead log creates. It exists for deterministic disk-fault
// injection (internal/nemesis); production code leaves it unset.
func WithLogWrap(wrap func(wal.File) wal.File) Option {
	return func(c *config) { c.wrapFile = wrap }
}

// Open creates a persistent map over engine e, recovering the state
// previously logged under dir (an empty or absent directory yields an
// empty map). Unless overridden by a WithPersistence option, records
// are fsynced under wal.DefaultPolicy.
func Open(e *core.Engine, dir string, opts ...Option) (*Map, error) {
	return newMap(e, append([]Option{defaultDir(dir)}, opts...)...)
}

// defaultDir sets the persistence directory without clobbering an
// explicit WithPersistence in the same option list.
func defaultDir(dir string) Option {
	return func(c *config) {
		if c.dir == "" {
			c.dir = dir
		}
	}
}

// ErrNoPersistence is returned by Save and Snapshot-related calls on a
// map built without WithPersistence.
var ErrNoPersistence = errors.New("shardmap: map has no persistence directory")

// openPersistence replays dir into the fresh map and opens the live
// log. Called from newMap before the map is shared, so replay needs no
// synchronization and the wal field is safely published with the map.
func (m *Map) openPersistence(cfg config) error {
	th := m.NewThread()
	m.persistThr = th
	st, err := wal.Replay(cfg.dir, th.Apply)
	if err != nil {
		return fmt.Errorf("shardmap: recovering %s: %w", cfg.dir, err)
	}
	m.replay = st
	th.ops.reset() // replay traffic is not serving traffic
	l, err := wal.Open(cfg.dir, wal.Options{
		Policy:       cfg.policy,
		CompactAfter: cfg.compactAfter,
		StartGen:     st.MaxGen + 1,
		Epoch:        st.Epoch,
		OnFull:       func() { m.autoSave() },
		WrapFile:     cfg.wrapFile,
	})
	if err != nil {
		return fmt.Errorf("shardmap: opening log in %s: %w", cfg.dir, err)
	}
	m.wal = l
	return nil
}

// Log exposes the live write-ahead log (nil without persistence) — the
// replication source tails its file and subscribes to its frontier.
func (m *Map) Log() *wal.Log { return m.wal }

// RecoveryStats reports what Open's replay found. A replica uses
// TruncatedFiles to decide whether its persisted replication cursor is
// still trustworthy after a crash.
func (m *Map) RecoveryStats() wal.ReplayStats { return m.replay }

// ---- post-commit logging (the wal == nil checks keep the in-memory
// map free of any persistence cost) ----

func (x *Thread) logPut(key string, val Value) {
	if w := x.m.wal; w != nil {
		w.Put(key, uint64(val))
	}
}

func (x *Thread) logDelete(key string) {
	if w := x.m.wal; w != nil {
		w.Delete(key)
	}
}

func (x *Thread) logCAS(key string, val Value) {
	if w := x.m.wal; w != nil {
		w.CAS(key, uint64(val))
	}
}

// logSwap2 emits a successful swap as one atomic record, whichever
// shards the keys live in.
func (x *Thread) logSwap2(k1 string, v1 Value, k2 string, v2 Value) {
	if w := x.m.wal; w != nil {
		w.Swap2(k1, uint64(v1), k2, uint64(v2))
	}
}

// ---- snapshots ----

// Save rotates the log to a fresh generation, writes a snapshot of the
// map's current contents tagged with that generation, and prunes the
// older generations — the BGSAVE / auto-compaction entry point. The
// snapshot is fuzzy (per-key consistent, not a point-in-time cut);
// replaying the post-rotation log tail over it converges every key to
// its logged state, which is what recovery does.
func (m *Map) Save() error {
	if m.wal == nil {
		return ErrNoPersistence
	}
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	gen, err := m.wal.Rotate()
	if err != nil {
		return err
	}
	th := m.persistThr
	return m.wal.CommitSnapshot(gen, func(sw *wal.SnapshotWriter) error {
		th.Range(func(key string, val Value) bool {
			sw.Entry(key, uint64(val))
			return true
		})
		return nil
	})
}

// savedErr wraps the auto-compaction outcome so saveErr always stores
// one concrete type: atomic.Value panics on inconsistently typed
// stores, and the error's concrete type varies (*fs.PathError from a
// full disk, wal errors, ...).
type savedErr struct{ err error }

// autoSave is the wal's log-full callback.
func (m *Map) autoSave() {
	m.saveErr.Store(savedErr{m.Save()})
}

// PersistErr reports the first latched log I/O error, or the most
// recent auto-compaction failure. A persistent map keeps serving from
// memory after either; callers that need durability guarantees should
// surface this.
func (m *Map) PersistErr() error {
	if m.wal == nil {
		return nil
	}
	if err := m.wal.Err(); err != nil {
		return err
	}
	if v := m.saveErr.Load(); v != nil {
		return v.(savedErr).err
	}
	return nil
}

// LogSize returns the live write-ahead-log size in bytes (0 without
// persistence) — the auto-compaction trigger variable, exposed for
// stats.
func (m *Map) LogSize() int64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.Size()
}

// Snapshot streams the map's current contents to w in the snapshot file
// format (readable with wal.ReadSnapshotRecords). The snapshot is
// fuzzy: each key's value is a committed value from some instant
// during the call. Snapshot works on non-persistent maps too (backup
// of an in-memory map).
func (m *Map) Snapshot(w io.Writer) error {
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	if m.persistThr == nil {
		m.persistThr = m.NewThread()
	}
	sw := wal.NewSnapshotWriter(w, 0)
	m.persistThr.Range(func(key string, val Value) bool {
		sw.Entry(key, uint64(val))
		return true
	})
	return sw.Close()
}

// Close flushes and closes the write-ahead log: everything acknowledged
// before Close is durable afterwards. Mutations after Close still apply
// in memory but are no longer logged. Close is idempotent; it returns
// the latched log I/O error, if any.
func (m *Map) Close() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Close()
}

// ---- iteration ----

// Range calls f for every key currently in the map until f returns
// false. Each (key, value) pair is read with the same 2-location
// consistent read Get uses, so no torn value is ever yielded; the
// iteration as a whole is fuzzy under concurrent writes, and a bucket
// whose chain mutates mid-walk is retried, which can yield a key again
// with a newer committed value (later yields supersede earlier ones).
// Range holds each shard's resize lock while walking it, so growth waits
// for iteration — keep f fast.
func (x *Thread) Range(f func(key string, val Value) bool) {
	m := x.m
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock() // excludes resizers: state.old == nil while held
		done := !x.rangeShard(sh, f)
		sh.mu.Unlock()
		if done {
			return
		}
	}
}

// rangeShard walks one shard's buckets, buffering each bucket's chain
// and emitting it only after a clean walk, so a restarted bucket never
// yields stale entries twice within one attempt.
func (x *Thread) rangeShard(sh *shard, f func(key string, val Value) bool) bool {
	m := x.m
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	tb := sh.state.Load().cur
	for b := range tb.buckets {
		for attempt := 1; ; attempt++ {
			x.rkeys = x.rkeys[:0]
			x.rvals = x.rvals[:0]
			link := x.t.SingleRead(m.bucketVar(tb, uint64(b)))
			clean := true
			for !link.IsNull() {
				if link.Marked() {
					clean = false // chain mutated under us; restart bucket
					break
				}
				cur := dec(link)
				n := sh.a.Get(cur)
				d, nv, vv := x.t.ShortRO2(m.nextVar(sh, cur, n), m.valVar(sh, cur, n))
				if !d.Valid() || nv.Marked() {
					clean = false
					break
				}
				x.rkeys = append(x.rkeys, n.key)
				x.rvals = append(x.rvals, vv)
				link = nv
			}
			if !clean {
				x.t.Backoff(attempt)
				continue
			}
			for i, k := range x.rkeys {
				if !f(k, x.rvals[i]) {
					return false
				}
			}
			break
		}
	}
	return true
}
