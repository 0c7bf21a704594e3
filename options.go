// Engine construction: the options-pattern constructor. An Engine is
// parameterized by a meta-data layout (paper Fig 3), a concurrency-
// control policy and a handful of capacity knobs; options make the
// common case read as prose —
//
//	e := spectm.New(spectm.WithLayout(spectm.LayoutTVar), spectm.WithCC(spectm.CCLocal))
//
// — while New validates the combination before any memory is committed.
// The zero-option call spectm.New() builds the default engine: the orec
// layout with the timestamp-extension policy, 256k ownership records,
// 128 threads.
package spectm

import (
	"fmt"

	"spectm/internal/core"
)

// Option configures an Engine under construction.
type Option func(*core.Config)

// WithLayout selects the meta-data organization (paper Fig 3):
// LayoutOrec, LayoutTVar or LayoutVal. The default is LayoutOrec.
func WithLayout(l Layout) Option {
	return func(c *core.Config) { c.Layout = l }
}

// WithCC selects the concurrency-control policy:
//
//	CCTimestampExt  commit-time locking, invisible readers, timebase
//	                extension on reads (the default — the engine's
//	                original protocol)
//	CCLazy          orec and tvar only: classic TL2, as above but a
//	                stale read aborts instead of extending
//	CCLocal         orec and tvar only: per-orec versions, no global
//	                counter, read-set validation after every read
//	CCNoCounter     LayoutVal only: value validation without commit
//	                counters (sound under the paper's §2.4 special
//	                cases, e.g. non-re-use of memory)
//
// It is the one selector of the engine's protocol; NewEngine rejects a
// policy the selected layout cannot run.
func WithCC(cc CC) Option {
	return func(c *core.Config) { c.CC = cc }
}

// WithSnapshots enables multi-version snapshot reads (Thr.SnapshotRead):
// every commit records the value it overwrites into a bounded history
// ring, letting wide read-only batches run at one timestamp with zero
// validation aborts. Requires a versioned layout (orec or tvar) and a
// global-timebase policy.
func WithSnapshots() Option {
	return func(c *core.Config) { c.Snapshots = true }
}

// WithMaxThreads bounds the number of Register calls the engine accepts
// (it sizes the per-thread counter arrays and the epoch domain). The
// default is 128. It is capacity, not cost: commit-counter validation
// walks the threads that have registered, so an unused slot costs 256
// bytes of memory and nothing per operation.
func WithMaxThreads(n int) Option {
	return func(c *core.Config) { c.MaxThreads = n }
}

// WithOrecBits sets log2 of the ownership-record table size for
// LayoutOrec (default 18, i.e. 256k orecs). Tiny values are useful in
// tests to force false conflicts. Ignored by the other layouts.
func WithOrecBits(bits int) Option {
	return func(c *core.Config) { c.OrecBits = bits }
}

// WithDebugChecks enables the paper's §2.2 runtime misuse detection
// (read/write-set disjointness, duplicate locations, lock leaks into
// full transactions) at some per-access cost.
func WithDebugChecks() Option {
	return func(c *core.Config) { c.Debug = true }
}

// NewEngine builds an Engine from options, reporting invalid
// combinations as an error: options that the selected layout would
// silently ignore are rejected rather than dropped.
func NewEngine(opts ...Option) (*Engine, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.OrecBits != 0 && cfg.Layout != LayoutOrec {
		return nil, fmt.Errorf("spectm: WithOrecBits is only meaningful with LayoutOrec, not %v", cfg.Layout)
	}
	return core.NewChecked(cfg)
}

// New builds an Engine from options, panicking on an invalid
// configuration (a programming error; use NewEngine to handle it as an
// error instead).
func New(opts ...Option) *Engine {
	e, err := NewEngine(opts...)
	if err != nil {
		panic(err.Error())
	}
	return e
}
