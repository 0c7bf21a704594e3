// Full ("ordinary") transactions — the paper's BaseTM (§2.1, §4.1).
//
// Versioned layouts (orec table, tvar) follow TL2 [Dice et al.] with
// timebase extension [Riegel et al.]: invisible reads validated against a
// start-time snapshot (global timebase) or incrementally after every read
// (CCLocal), deferred updates in a write log, and commit-time locking.
//
// The val layout follows the paper's §2.4 general-purpose fallback, which
// is NOrec-shaped [Dalessandro et al.]: reads log (location, value) pairs
// and are revalidated by value whenever the commit counter moves; commit
// locks the write set in place (lock bits in the data words), validates
// the read set by value, and publishes.
//
// Under every layout and policy a full transaction holds no lock outside
// TxCommit.
//
// Conflicts mark the transaction aborted; subsequent reads return 0 and
// TxCommit fails. Callers restart, normally through Thr.Atomic, which
// applies the randomized-linear contention manager.
package core

import (
	"sync/atomic"
	"unsafe"

	"spectm/internal/vlock"
	"spectm/internal/word"
)

// txnRec is the full-transaction descriptor, embedded in Thr and reused
// across transactions (§4.1).
type txnRec struct {
	active  bool
	aborted bool
	snap    uint64
	reads   []rdEnt
	writes  []wrEnt

	// wfilter has bit wbit(data) set for the data word of every write
	// entry, so looking up a word the transaction has not written —
	// nearly every TxRead, every first TxWrite — skips the scan of the
	// write set while the set is small. TxStart clears it.
	wfilter uint64
}

// rdEnt is one read-set entry. Versioned layouts record the observed meta
// word; the val layout records the observed value (meta == nil).
type rdEnt struct {
	meta *uint64
	data *uint64
	seen uint64
}

// wrEnt is one write-set entry. lockSeen is filled during the commit's
// lock phase. dup marks LayoutOrec entries sharing an orec with an
// earlier entry.
type wrEnt struct {
	meta     *uint64
	data     *uint64
	val      uint64
	lockSeen uint64
	dup      bool
}

// txnSpinBudget bounds waiting on a locked location during reads and the
// commit lock phase before aborting (commit-time locks are held only
// briefly, so a short spin pays off).
const txnSpinBudget = 64

// TxStart begins a full transaction on this thread.
func (t *Thr) TxStart() {
	t.debugCheckTxStart()
	x := &t.txn
	x.active = true
	x.aborted = false
	x.reads = x.reads[:0]
	x.writes = x.writes[:0]
	x.wfilter = 0
	switch t.rp {
	case rpVerExt:
		x.snap = t.e.global.Read()
	case rpValCnt:
		x.snap = t.e.stableSum()
	}
}

// TxOK reports whether the transaction is still viable. After a conflict
// abort, reads return 0; callers must not act on such values and should
// fall through to TxCommit (which will fail) or restart.
func (t *Thr) TxOK() bool { return t.txn.active && !t.txn.aborted }

// txAbortNow marks the transaction dead after a conflict. The write set
// is locked only inside TxCommit, so there is nothing to release.
func (t *Thr) txAbortNow() {
	t.txn.aborted = true
	t.Stats.Aborts++
}

// TxAbort abandons the transaction explicitly (user abort, the paper's
// STM_ABORT_TX). Updates are deferred and no lock is held before
// TxCommit, so there is nothing to undo.
func (t *Thr) TxAbort() {
	t.txn.active = false
	t.txn.aborted = true
}

// TxRead performs a transactional read of v. It returns the transaction's
// own pending write if there is one (read-after-write), else a validated
// snapshot-consistent value. On conflict it marks the transaction aborted
// and returns 0.
func (t *Thr) TxRead(v Var) Value {
	t.debugCheckTxActive("TxRead")
	x := &t.txn
	if x.aborted {
		return 0
	}
	// Read-after-write: deferred updates live in the write log.
	if i := x.findWrite(v.data); i >= 0 {
		return Value(x.writes[i].val)
	}
	// Monomorphized dispatch: t.rp is fixed at Register, each case is a
	// direct call to a policy-specialized reader.
	switch t.rp {
	case rpVerExt:
		return t.txReadVerExt(v)
	case rpVerLocal:
		return t.txReadVerLocal(v)
	case rpValCnt:
		return t.txReadValCnt(v)
	default:
		return t.txReadValNoCnt(v)
	}
}

// txPairRead performs the consistent meta/data pair read shared by the
// versioned policies.
func (t *Thr) txPairRead(v Var) (m1, d uint64, ok bool) {
	for iter := 0; ; iter++ {
		m1 = vlock.Load(v.meta)
		if vlock.IsLocked(m1) {
			if iter >= txnSpinBudget {
				return 0, 0, false
			}
			spinWait(iter)
			continue
		}
		d = atomic.LoadUint64(v.data)
		if vlock.Load(v.meta) == m1 {
			return m1, d, true
		}
		if iter >= txnSpinBudget {
			return 0, 0, false
		}
		spinWait(iter)
	}
}

// txReadVerExt: global clock with timebase extension (CCTimestampExt).
func (t *Thr) txReadVerExt(v Var) Value {
	x := &t.txn
	m1, d, ok := t.txPairRead(v)
	if !ok {
		t.txAbortNow()
		return 0
	}
	x.reads = append(x.reads, rdEnt{meta: v.meta, data: v.data, seen: m1})
	if vlock.Version(m1) > x.snap {
		// Timebase extension: revalidate and move the snapshot.
		newSnap := t.e.global.Read()
		if !t.txValidateVersioned() {
			t.txAbortNow()
			return 0
		}
		x.snap = newSnap
	}
	return Value(d)
}

// txReadVerLocal: per-orec versions (CCLocal) — opacity requires
// validating the whole read set after every read.
func (t *Thr) txReadVerLocal(v Var) Value {
	x := &t.txn
	m1, d, ok := t.txPairRead(v)
	if !ok {
		t.txAbortNow()
		return 0
	}
	x.reads = append(x.reads, rdEnt{meta: v.meta, data: v.data, seen: m1})
	if !t.txValidateVersioned() {
		t.txAbortNow()
		return 0
	}
	return Value(d)
}

// txReadValNoCnt: pure value validation (CCNoCounter). No counters at
// all: opacity comes from validating the whole read set by value after
// every read, which is only sound under §2.4's special cases
// (non-re-use). This is the paper's val-full behavior — "read-set
// validation costs incurred on each transactional read dominate".
func (t *Thr) txReadValNoCnt(v Var) Value {
	x := &t.txn
	for iter := 0; ; iter++ {
		w := atomic.LoadUint64(v.data)
		if word.Locked(w) {
			if iter >= txnSpinBudget {
				t.txAbortNow()
				return 0
			}
			spinWait(iter)
			continue
		}
		x.reads = append(x.reads, rdEnt{data: v.data, seen: w})
		if !t.txValidateVal(0) {
			t.txAbortNow()
			return 0
		}
		return Value(w)
	}
}

// txReadValCnt: NOrec-style value validation with commit counters.
func (t *Thr) txReadValCnt(v Var) Value {
	x := &t.txn
	for iter := 0; ; iter++ {
		w := atomic.LoadUint64(v.data)
		if word.Locked(w) {
			if iter >= txnSpinBudget {
				t.txAbortNow()
				return 0
			}
			spinWait(iter)
			continue
		}
		cur := t.e.stableSum()
		if cur != x.snap {
			if !t.txExtendVal() {
				t.txAbortNow()
				return 0
			}
			// A commit slipped in; the word may have changed since we
			// loaded it. Re-read under the new snapshot.
			continue
		}
		x.reads = append(x.reads, rdEnt{data: v.data, seen: w})
		return Value(w)
	}
}

// txExtendVal revalidates the val-layout read set by value and advances
// the counter snapshot, NOrec style.
func (t *Thr) txExtendVal() bool {
	x := &t.txn
	for {
		cur := t.e.stableSum()
		if cur == x.snap {
			return true
		}
		if !t.txValidateVal(0) {
			return false
		}
		if t.e.stableSum() == cur {
			x.snap = cur
			return true
		}
	}
}

// TxWrite logs a deferred update to v.
func (t *Thr) TxWrite(v Var, val Value) {
	t.debugCheckTxActive("TxWrite")
	x := &t.txn
	if x.aborted {
		return
	}
	if t.e.cfg.Layout == LayoutVal {
		checkEncodable(val)
	} else {
		t.debugCheckValue(val)
	}
	if i := x.findWrite(v.data); i >= 0 {
		x.writes[i].val = uint64(val)
		return
	}
	x.writes = append(x.writes, wrEnt{meta: v.meta, data: v.data, val: uint64(val)})
	x.wfilter |= wbit(v.data)
}

// wbit is data's bit in the write-set filter: the top six bits of its
// address under Fibonacci hashing, so words a fixed stride apart spread
// over the 64 bits.
func wbit(data *uint64) uint64 {
	return 1 << (uint64(uintptr(unsafe.Pointer(data))) * 0x9E3779B97F4A7C15 >> 58)
}

// findWrite returns the index of data's write entry, or -1. A word
// whose filter bit is clear has none; otherwise the write set is
// scanned. The full transactions the map runs (a bucket migration)
// write 3–21 words, 3 or 4 at the median, so the filter passes a word
// not yet written about one time in sixteen and the scan stays short;
// a write set much past 64 words sets every bit and pays a linear scan
// per lookup.
func (x *txnRec) findWrite(data *uint64) int {
	if x.wfilter&wbit(data) == 0 {
		return -1
	}
	for i := range x.writes {
		if x.writes[i].data == data {
			return i
		}
	}
	return -1
}

// TxCommit attempts to commit. On failure the transaction is rolled back
// (nothing was published) and the caller restarts.
func (t *Thr) TxCommit() bool {
	x := &t.txn
	if !x.active {
		panic("core: TxCommit without TxStart")
	}
	x.active = false
	if x.aborted {
		return false
	}
	if len(x.writes) == 0 {
		return t.txCommitReadOnly()
	}
	var ok bool
	if t.e.cfg.Layout == LayoutVal {
		ok = t.txCommitVal()
	} else {
		ok = t.txCommitVersioned()
	}
	if ok {
		t.Stats.Commits++
	} else {
		t.Stats.Aborts++
	}
	return ok
}

func (t *Thr) txCommitReadOnly() bool {
	// Versioned layouts validated every read against the snapshot
	// (global) or the whole read set (local); nothing more is needed.
	// The val layout revalidates at its linearization point.
	if t.e.cfg.Layout == LayoutVal {
		ok := true
		if t.rp == rpValNoCnt {
			// Sound only under §2.4's special cases (non-re-use),
			// exactly like the paper's Fig 5 val-full RO measurement.
			ok = t.txValidateVal(0)
		} else {
			ok = t.txExtendVal()
		}
		if !ok {
			t.Stats.Aborts++
			return false
		}
	}
	t.Stats.Commits++
	return true
}

func (t *Thr) txCommitVersioned() bool {
	x := &t.txn
	// Lock phase (commit-time locking). Under LayoutOrec two entries can
	// share an orec; the first locks it, later ones alias it.
	for i := range x.writes {
		w := &x.writes[i]
		if j := t.ownWriteLock(w.meta, i); j >= 0 {
			w.lockSeen, w.dup = x.writes[j].lockSeen, true
			continue
		}
		acquired := false
		for iter := 0; iter < txnSpinBudget; iter++ {
			m := vlock.Load(w.meta)
			if vlock.IsLocked(m) {
				spinWait(iter)
				continue
			}
			if vlock.TryLock(w.meta, m, t.owner) {
				w.lockSeen, w.dup = m, false
				acquired = true
				break
			}
		}
		if !acquired {
			t.txReleaseWriteLocks(i)
			return false
		}
	}
	// Validate phase.
	wv := uint64(0)
	if t.rp != rpVerLocal {
		wv = t.e.global.Tick()
	}
	if !t.txValidateVersioned() {
		t.txReleaseWriteLocks(len(x.writes))
		return false
	}
	// Publish and release.
	for i := range x.writes {
		atomic.StoreUint64(x.writes[i].data, x.writes[i].val)
	}
	for i := range x.writes {
		w := &x.writes[i]
		if w.dup {
			continue
		}
		if t.rp != rpVerLocal {
			vlock.Unlock(w.meta, wv)
		} else {
			vlock.Unlock(w.meta, vlock.Version(w.lockSeen)+1)
		}
	}
	return true
}

// ownWriteLock returns the index of an earlier write entry that already
// locked meta, or -1.
func (t *Thr) ownWriteLock(meta *uint64, before int) int {
	x := &t.txn
	for j := 0; j < before; j++ {
		if x.writes[j].meta == meta && !x.writes[j].dup {
			return j
		}
	}
	return -1
}

// txReleaseWriteLocks unlocks the first n write entries, restoring their
// pre-lock versions.
func (t *Thr) txReleaseWriteLocks(n int) {
	x := &t.txn
	for i := 0; i < n; i++ {
		w := &x.writes[i]
		if !w.dup {
			vlock.Unlock(w.meta, vlock.Version(w.lockSeen))
		}
	}
}

// txValidateVersioned checks every read entry: unchanged, or locked by
// this transaction with an unchanged pre-lock version.
func (t *Thr) txValidateVersioned() bool {
	x := &t.txn
	for i := range x.reads {
		r := &x.reads[i]
		cur := vlock.Load(r.meta)
		if cur == r.seen {
			continue
		}
		if vlock.LockedBy(cur, t.owner) && t.txOwnLockSeen(r.meta) == r.seen {
			continue
		}
		return false
	}
	return true
}

// txOwnLockSeen returns the pre-lock meta word for a meta this commit
// holds, or ^0.
func (t *Thr) txOwnLockSeen(meta *uint64) uint64 {
	x := &t.txn
	for i := range x.writes {
		if x.writes[i].meta == meta && !x.writes[i].dup {
			return x.writes[i].lockSeen
		}
	}
	return ^uint64(0)
}

func (t *Thr) txCommitVal() bool {
	x := &t.txn
	// Lock phase: set the lock bit in every written word. The write set
	// is deduplicated by TxWrite, so no aliasing here.
	for i := range x.writes {
		w := &x.writes[i]
		acquired := false
		for iter := 0; iter < txnSpinBudget; iter++ {
			cur := atomic.LoadUint64(w.data)
			if word.Locked(cur) {
				spinWait(iter)
				continue
			}
			if atomic.CompareAndSwapUint64(w.data, cur, word.LockWord(t.owner)) {
				w.lockSeen = cur
				acquired = true
				break
			}
		}
		if !acquired {
			t.txReleaseValLocks(i)
			return false
		}
	}
	// Validate phase: always by value. A counter fast path would be
	// unsound here — a peer committer's write locks never touch the
	// counters, so they can only be observed through the value
	// comparison itself (this is what prevents write skew).
	var ok bool
	if t.rp == rpValNoCnt {
		ok = t.txValidateVal(t.owner)
	} else {
		for {
			s1 := t.e.stableSum()
			ok = t.txValidateVal(t.owner)
			if !ok || t.e.stableSum() == s1 {
				break
			}
		}
	}
	if !ok {
		t.txReleaseValLocks(len(x.writes))
		return false
	}
	// Publish: the stores clear the lock bits.
	t.storeBegin()
	for i := range x.writes {
		atomic.StoreUint64(x.writes[i].data, x.writes[i].val)
	}
	t.storeEnd()
	return true
}

// txReleaseValLocks restores the first n val-layout write entries.
func (t *Thr) txReleaseValLocks(n int) {
	x := &t.txn
	for i := 0; i < n; i++ {
		atomic.StoreUint64(x.writes[i].data, x.writes[i].lockSeen)
	}
}

// txValidateVal value-validates the read set. owner != 0 accepts words
// locked by this committing transaction whose pre-lock value matches.
func (t *Thr) txValidateVal(owner uint64) bool {
	x := &t.txn
	for i := range x.reads {
		r := &x.reads[i]
		cur := atomic.LoadUint64(r.data)
		if cur == r.seen {
			continue
		}
		if owner != 0 && word.Locked(cur) && word.LockOwner(cur) == owner &&
			t.txOwnValSeen(r.data) == r.seen {
			continue
		}
		return false
	}
	return true
}

// txOwnValSeen returns the pre-lock value for a data word this commit
// holds, or ^0.
func (t *Thr) txOwnValSeen(data *uint64) uint64 {
	x := &t.txn
	if i := x.findWrite(data); i >= 0 {
		return x.writes[i].lockSeen
	}
	return ^uint64(0)
}

// Atomic runs fn as a full transaction, retrying on conflicts with
// randomized linear backoff. fn may signal a user-level abort by
// returning false, in which case Atomic aborts and returns false without
// retrying. fn must tolerate being re-run and must check TxOK before
// acting on control flow derived from transactional reads.
func (t *Thr) Atomic(fn func() bool) bool {
	for attempt := 1; ; attempt++ {
		t.TxStart()
		keep := fn()
		if !keep && t.TxOK() {
			t.TxAbort()
			return false
		}
		if t.TxCommit() {
			return true
		}
		t.Backoff(attempt)
	}
}
