// Single-location transactions (paper §2.2, Tx_Single_*). These are
// linearizable one-word operations that synchronize with concurrent
// short and full transactions through the same meta-data, with no
// transaction record at all.
package core

import (
	"sync/atomic"

	"spectm/internal/vlock"
	"spectm/internal/word"
)

// SingleRead performs a one-location read-only transaction. It never
// returns a value written by an uncommitted transaction.
func (t *Thr) SingleRead(v Var) Value {
	t.Stats.Singles++
	if v.meta == nil {
		// Val layout: a value word is valid the instant the lock bit is
		// clear; locked words belong to an in-flight writer.
		for iter := 0; ; iter++ {
			w := atomic.LoadUint64(v.data)
			if !word.Locked(w) {
				return Value(w)
			}
			spinWait(iter)
		}
	}
	for iter := 0; ; iter++ {
		m1 := vlock.Load(v.meta)
		if !vlock.IsLocked(m1) {
			d := atomic.LoadUint64(v.data)
			if vlock.Load(v.meta) == m1 {
				return Value(d)
			}
		}
		spinWait(iter)
	}
}

// SingleWrite performs a one-location update transaction.
func (t *Thr) SingleWrite(v Var, val Value) {
	t.Stats.Singles++
	if v.meta == nil {
		checkEncodable(val)
		for iter := 0; ; iter++ {
			w := atomic.LoadUint64(v.data)
			if !word.Locked(w) {
				t.storeBegin()
				done := atomic.CompareAndSwapUint64(v.data, w, uint64(val))
				t.storeEnd()
				if done {
					return
				}
			}
			spinWait(iter)
		}
	}
	for iter := 0; ; iter++ {
		m := vlock.Load(v.meta)
		if !vlock.IsLocked(m) && vlock.TryLock(v.meta, m, t.owner) {
			wv := t.nextVersion(m)
			atomic.StoreUint64(v.data, uint64(val))
			vlock.Unlock(v.meta, wv)
			return
		}
		spinWait(iter)
	}
}

// SingleCAS performs a one-location compare-and-swap transaction. It
// returns the value witnessed at the location: a return equal to old
// means the swap happened.
func (t *Thr) SingleCAS(v Var, old, new Value) Value {
	t.Stats.Singles++
	if v.meta == nil {
		checkEncodable(new)
		for iter := 0; ; iter++ {
			w := atomic.LoadUint64(v.data)
			if word.Locked(w) {
				spinWait(iter)
				continue
			}
			if Value(w) != old {
				return Value(w)
			}
			t.storeBegin()
			done := atomic.CompareAndSwapUint64(v.data, w, uint64(new))
			t.storeEnd()
			if done {
				return old
			}
			spinWait(iter)
		}
	}
	for iter := 0; ; iter++ {
		m := vlock.Load(v.meta)
		if vlock.IsLocked(m) {
			spinWait(iter)
			continue
		}
		d := atomic.LoadUint64(v.data)
		if Value(d) != old {
			// Failure must still be a consistent observation: the meta
			// word bracketing the data read must be unchanged.
			if vlock.Load(v.meta) == m {
				return Value(d)
			}
			continue
		}
		if !vlock.TryLock(v.meta, m, t.owner) {
			continue
		}
		d = atomic.LoadUint64(v.data)
		if Value(d) != old {
			vlock.Unlock(v.meta, vlock.Version(m))
			return Value(d)
		}
		wv := t.nextVersion(m)
		atomic.StoreUint64(v.data, uint64(new))
		vlock.Unlock(v.meta, wv)
		return old
	}
}

// nextVersion computes the version installed by a committing single/short
// update under versioned layouts.
func (t *Thr) nextVersion(preLock uint64) uint64 {
	if t.rp != rpVerLocal {
		return t.e.global.Tick()
	}
	return vlock.Version(preLock) + 1
}
