// Short transactions (paper §2.2): statically sized, numbered accesses,
// writes deferred to commit. This file holds the layout-generic machinery;
// typed.go exposes it as descriptors whose types carry the arity of
// Figure 2's functions (Tx_RW_R1, Tx_RO_2_Is_Valid, Tx_RO_1_RW_2_Commit,
// ...).
//
// Protocol summary:
//
//   - RW reads acquire the location's lock eagerly (encounter-time
//     locking). Because every location read is locked, no read-set
//     validation is needed at commit; commit just stores the new values
//     and releases (§2.2 "eagerly acquire a write lock at the time of
//     the read, eliminating the need for commit-time read-set
//     validation").
//   - RO reads are invisible. Under versioned layouts they are validated
//     against orec versions (with TL2-style snapshot extension under
//     the global timebase, or validation after every read under CCLocal).
//     Under the val layout they are validated by value (§2.4), optionally
//     guarded by the per-thread commit counters.
//   - A combined transaction reads with RO ops, upgrades the locations it
//     decides to write (or locks fresh ones with LockRead), and commits
//     through its ShortROxRWy descriptor, which validates the read-only
//     entries while holding the write locks.
//
// Any conflict immediately releases all locks held by the record and
// marks it invalid; subsequent operations on the record are no-ops until
// the next opener resets it. This matches the paper's usage pattern,
// where the program polls ..._Is_Valid and restarts.
package core

import (
	"fmt"
	"sync/atomic"

	"spectm/internal/vlock"
	"spectm/internal/word"
)

// shortRec is the short-transaction record (the paper's TX_RECORD),
// embedded in the per-thread descriptor.
type shortRec struct {
	valid bool
	done  bool   // completed by a successful read-only validation
	snap  uint64 // global timebase: snapshot; LayoutVal: counter sum
	nr    int    // read-only entries
	nw    int    // write (locked) entries

	// Read-only set.
	rMeta [MaxShort]*uint64 // versioned layouts; nil for val
	rData [MaxShort]*uint64
	rSeen [MaxShort]uint64 // versioned: meta word observed; val: value observed

	// Write set (locations locked by this record).
	wMeta [MaxShort]*uint64 // versioned layouts; nil for val
	wData [MaxShort]*uint64
	wSeen [MaxShort]uint64 // versioned: pre-lock meta word; val: pre-lock value
	wDup  [MaxShort]bool   // LayoutOrec: entry shares an orec with an earlier entry
}

// beginShort resets the record for a new transaction whose first access
// is about to run.
func (t *Thr) beginShort() {
	s := &t.short
	s.valid = true
	s.done = false
	s.nr, s.nw = 0, 0
	switch t.rp {
	case rpVerExt, rpVerLazy:
		s.snap = t.e.global.Read()
	case rpValCnt:
		s.snap = t.e.stableSum()
	}
}

// failShort releases all locks held by the record and marks it invalid.
func (t *Thr) failShort() {
	s := &t.short
	t.releaseShortLocks()
	s.valid = false
	t.Stats.ShortAborts++
}

// releaseShortLocks restores every location locked by the record.
func (t *Thr) releaseShortLocks() {
	s := &t.short
	for i := 0; i < s.nw; i++ {
		if s.wMeta[i] != nil {
			if !s.wDup[i] {
				vlock.Unlock(s.wMeta[i], vlock.Version(s.wSeen[i]))
			}
		} else {
			atomic.StoreUint64(s.wData[i], s.wSeen[i])
		}
	}
	s.nw = 0
}

// shortRWRead implements Tx_RW_Ri: lock the location, return its value.
// i is the 0-based access index. i == 0 starts a fresh transaction —
// unless the record is an open read-only transaction, in which case the
// RW read joins it, forming a combined transaction (Figure 2's mixing
// of Tx_RO_* and Tx_RW_* operations). To abandon an open read-only
// record instead, call ShortDiscard (or validate it) first.
func (t *Thr) shortRWRead(i int, v Var) Value {
	if i == 0 {
		s := &t.short
		if !s.valid || s.done || s.nr == 0 {
			t.beginShort()
		}
	}
	s := &t.short
	if !s.valid {
		return 0
	}
	if s.nw != i {
		panic(fmt.Sprintf("core: RW read index %d out of order (next is %d)", i+1, s.nw+1))
	}
	t.debugCheckRWRead(v)
	if v.meta != nil {
		return t.shortRWReadVersioned(i, v)
	}
	return t.shortRWReadVal(i, v)
}

func (t *Thr) shortRWReadVersioned(i int, v Var) Value {
	s := &t.short
	// The paper requires accesses to distinct memory locations, but under
	// LayoutOrec two distinct locations can share an orec; detect a lock
	// we already hold and alias it.
	for j := 0; j < s.nw; j++ {
		if s.wMeta[j] == v.meta {
			s.wMeta[i], s.wData[i], s.wSeen[i], s.wDup[i] = v.meta, v.data, s.wSeen[j], true
			s.nw = i + 1
			return Value(atomic.LoadUint64(v.data))
		}
	}
	m := vlock.Load(v.meta)
	if vlock.IsLocked(m) || !vlock.TryLock(v.meta, m, t.owner) {
		t.failShort()
		return 0
	}
	s.wMeta[i], s.wData[i], s.wSeen[i], s.wDup[i] = v.meta, v.data, m, false
	s.nw = i + 1
	return Value(atomic.LoadUint64(v.data))
}

func (t *Thr) shortRWReadVal(i int, v Var) Value {
	s := &t.short
	w := atomic.LoadUint64(v.data)
	if word.Locked(w) || !atomic.CompareAndSwapUint64(v.data, w, word.LockWord(t.owner)) {
		t.failShort()
		return 0
	}
	s.wMeta[i], s.wData[i], s.wSeen[i], s.wDup[i] = nil, v.data, w, false
	s.nw = i + 1
	return Value(w)
}

// shortRWValid implements Tx_RW_n_Is_Valid. When the record is invalid it
// has already released its locks; the caller restarts.
func (t *Thr) shortRWValid(n int) bool {
	s := &t.short
	if !s.valid {
		return false
	}
	if s.nw != n {
		panic(fmt.Sprintf("core: RW valid arity %d but %d locations accessed", n, s.nw))
	}
	return true
}

// shortRWCommit implements Tx_RW_n_Commit: store the new values and
// release. All locations are locked, so no validation is required. vals
// is a fixed-size array (only the first n entries are used) so the
// commit fast path performs no dynamic allocation.
func (t *Thr) shortRWCommit(n int, vals [MaxShort]Value) {
	s := &t.short
	if !s.valid || s.nw != n {
		panic(fmt.Sprintf("core: RW commit arity %d on record with %d locked locations (valid=%v)", n, s.nw, s.valid))
	}
	t.publishAndRelease(n, vals)
	s.valid = false // transaction finished; next R1 resets
	t.Stats.ShortCommits++
}

// publishAndRelease stores vals into the write set and releases all
// locks, bumping versions/counters as the layout requires. Taking the
// values as a fixed-size array keeps the hot path allocation-free.
func (t *Thr) publishAndRelease(n int, vals [MaxShort]Value) {
	s := &t.short
	if t.e.cfg.Layout == LayoutVal {
		for i := 0; i < n; i++ {
			checkEncodable(vals[i]) // before storeBegin: must not panic mid-phase
		}
		t.storeBegin()
		for i := 0; i < n; i++ {
			atomic.StoreUint64(s.wData[i], uint64(vals[i]))
		}
		t.storeEnd()
		s.nw = 0
		return
	}
	var wv uint64
	if t.rp != rpVerLocal {
		wv = t.e.global.Tick()
	}
	if st := t.e.snap; st != nil {
		// Record overwritten values while the locks are still held.
		for i := 0; i < n; i++ {
			st.record(s.wData[i], vlock.Version(s.wSeen[i]), wv, atomic.LoadUint64(s.wData[i]))
		}
	}
	for i := 0; i < n; i++ {
		atomic.StoreUint64(s.wData[i], uint64(vals[i]))
	}
	for i := 0; i < n; i++ {
		if s.wDup[i] {
			continue
		}
		if t.rp != rpVerLocal {
			vlock.Unlock(s.wMeta[i], wv)
		} else {
			vlock.Unlock(s.wMeta[i], vlock.Version(s.wSeen[i])+1)
		}
	}
	s.nw = 0
}

// shortRWAbort implements Tx_RW_n_Abort: restore and release.
func (t *Thr) shortRWAbort(n int) {
	s := &t.short
	if !s.valid {
		return // conflict already cleaned up
	}
	if s.nw != n {
		panic(fmt.Sprintf("core: RW abort arity %d but %d locations locked", n, s.nw))
	}
	t.releaseShortLocks()
	s.valid = false
}

// shortRORead implements Tx_RO_Ri: an invisible read, validated per the
// layout and CC policy. i == 0 always starts a fresh transaction; read-only
// reads must precede any RW reads or upgrades of a combined transaction.
func (t *Thr) shortRORead(i int, v Var) Value {
	if i == 0 {
		if s := &t.short; s.valid && !s.done && s.nw > 0 {
			panic("core: RO read cannot start a transaction while write locks are held; commit, abort or discard first")
		}
		t.beginShort()
	}
	s := &t.short
	if !s.valid {
		return 0
	}
	if s.nr != i {
		panic(fmt.Sprintf("core: RO read index %d out of order (next is %d)", i+1, s.nr+1))
	}
	t.debugCheckRORead(v)
	// Monomorphized dispatch on the policy path fixed at Register.
	switch t.rp {
	case rpVerExt:
		return t.shortROReadVerExt(i, v)
	case rpVerLazy:
		return t.shortROReadVerLazy(i, v)
	case rpVerLocal:
		return t.shortROReadVerLocal(i, v)
	case rpValCnt:
		return t.shortROReadValCnt(i, v)
	default:
		return t.shortROReadValNoCnt(i, v)
	}
}

// roSpinBudget bounds waiting on a locked location before declaring a
// conflict. Lock hold times are a handful of instructions, so a short
// spin avoids gratuitous restarts.
const roSpinBudget = 64

// shortROReadVerExt: global clock with TL2 timebase extension
// (CCTimestampExt): a version newer than the snapshot forces
// revalidation of everything read so far, after which the snapshot may
// be advanced.
func (t *Thr) shortROReadVerExt(i int, v Var) Value {
	s := &t.short
	var m1, d uint64
	for iter := 0; ; iter++ {
		m1 = vlock.Load(v.meta)
		if vlock.IsLocked(m1) {
			if iter >= roSpinBudget {
				t.failShort()
				return 0
			}
			spinWait(iter)
			continue
		}
		d = atomic.LoadUint64(v.data)
		if vlock.Load(v.meta) == m1 {
			break
		}
		if iter >= roSpinBudget {
			t.failShort()
			return 0
		}
		spinWait(iter)
	}
	if vlock.Version(m1) > s.snap {
		newSnap := t.e.global.Read()
		if !t.shortValidateROVersioned(i) {
			t.failShort()
			return 0
		}
		s.snap = newSnap
	}
	s.rMeta[i], s.rData[i], s.rSeen[i] = v.meta, v.data, m1
	s.nr = i + 1
	return Value(d)
}

// shortROReadVerLazy: classic TL2 (CCLazy) — a post-snapshot version
// aborts instead of extending.
func (t *Thr) shortROReadVerLazy(i int, v Var) Value {
	s := &t.short
	var m1, d uint64
	for iter := 0; ; iter++ {
		m1 = vlock.Load(v.meta)
		if vlock.IsLocked(m1) {
			if iter >= roSpinBudget {
				t.failShort()
				return 0
			}
			spinWait(iter)
			continue
		}
		d = atomic.LoadUint64(v.data)
		if vlock.Load(v.meta) == m1 {
			break
		}
		if iter >= roSpinBudget {
			t.failShort()
			return 0
		}
		spinWait(iter)
	}
	if vlock.Version(m1) > s.snap {
		t.failShort()
		return 0
	}
	s.rMeta[i], s.rData[i], s.rSeen[i] = v.meta, v.data, m1
	s.nr = i + 1
	return Value(d)
}

// shortROReadVerLocal: per-orec versions (CCLocal) — validate the whole
// read set after every read to preserve opacity (§4.1 "local version
// numbers").
func (t *Thr) shortROReadVerLocal(i int, v Var) Value {
	s := &t.short
	var m1, d uint64
	for iter := 0; ; iter++ {
		m1 = vlock.Load(v.meta)
		if vlock.IsLocked(m1) {
			if iter >= roSpinBudget {
				t.failShort()
				return 0
			}
			spinWait(iter)
			continue
		}
		d = atomic.LoadUint64(v.data)
		if vlock.Load(v.meta) == m1 {
			break
		}
		if iter >= roSpinBudget {
			t.failShort()
			return 0
		}
		spinWait(iter)
	}
	if !t.shortValidateROVersioned(i) {
		t.failShort()
		return 0
	}
	s.rMeta[i], s.rData[i], s.rSeen[i] = v.meta, v.data, m1
	s.nr = i + 1
	return Value(d)
}

// shortROReadValNoCnt: pure value validation (CCNoCounter) — the value
// is recorded and revalidated wholesale at validation points.
func (t *Thr) shortROReadValNoCnt(i int, v Var) Value {
	s := &t.short
	var w uint64
	for iter := 0; ; iter++ {
		w = atomic.LoadUint64(v.data)
		if !word.Locked(w) {
			break
		}
		if iter >= roSpinBudget {
			t.failShort()
			return 0
		}
		spinWait(iter)
	}
	s.rMeta[i], s.rData[i], s.rSeen[i] = nil, v.data, w
	s.nr = i + 1
	return Value(w)
}

// shortROReadValCnt: commit-counter guard (Dalessandro et al., §2.4):
// the value is only accepted if it was loaded inside a window with no
// commit activity since the snapshot. Otherwise revalidate previous
// entries, extend the snapshot, and re-read — a value loaded before the
// extension might itself be stale.
func (t *Thr) shortROReadValCnt(i int, v Var) Value {
	s := &t.short
	var w uint64
	for iter := 0; ; iter++ {
		w = atomic.LoadUint64(v.data)
		if word.Locked(w) {
			if iter >= roSpinBudget {
				t.failShort()
				return 0
			}
			spinWait(iter)
			continue
		}
		if t.e.stableSum() == s.snap {
			break
		}
		if !t.valExtend(i) {
			t.failShort()
			return 0
		}
		if iter >= roSpinBudget {
			t.failShort()
			return 0
		}
	}
	s.rMeta[i], s.rData[i], s.rSeen[i] = nil, v.data, w
	s.nr = i + 1
	return Value(w)
}

// shortValidateROVersioned checks that the first n read-only entries are
// unlocked and unchanged. An entry whose orec we lock ourselves (after an
// upgrade, or an orec collision with a write entry) validates iff no
// commit intervened between the read and our lock acquisition.
func (t *Thr) shortValidateROVersioned(n int) bool {
	s := &t.short
	for j := 0; j < n; j++ {
		cur := vlock.Load(s.rMeta[j])
		if cur == s.rSeen[j] {
			continue
		}
		if vlock.LockedBy(cur, t.owner) && t.ownSeen(s.rMeta[j]) == s.rSeen[j] {
			continue
		}
		return false
	}
	return true
}

// ownSeen returns the pre-lock meta word recorded for a meta location we
// hold, or ^0 when not found.
func (t *Thr) ownSeen(meta *uint64) uint64 {
	s := &t.short
	for k := 0; k < s.nw; k++ {
		if s.wMeta[k] == meta && !s.wDup[k] {
			return s.wSeen[k]
		}
	}
	return ^uint64(0)
}

// valExtend brings the val-layout counter snapshot up to date,
// revalidating recorded values when commits have happened. Returns false
// on a value conflict. The fast path — StableSum unchanged since the
// snapshot — is sound for read-only use because every mutation of a val
// word is preceded by its writer's counter going odd.
func (t *Thr) valExtend(n int) bool {
	s := &t.short
	for {
		cur := t.e.stableSum()
		if cur == s.snap {
			return true
		}
		if !t.shortValidateROVal(n) {
			return false
		}
		if t.e.stableSum() == cur {
			s.snap = cur
			return true
		}
	}
}

// shortValidateROValStable value-validates n read-only entries inside a
// stable-counter window. Unlike valExtend it has no unchanged-counter
// fast path: it is used by combined commits, whose held write locks are
// invisible to the counters and must be observed by peers through the
// value comparison itself.
func (t *Thr) shortValidateROValStable(n int) bool {
	for {
		s1 := t.e.stableSum()
		if !t.shortValidateROVal(n) {
			return false
		}
		if t.e.stableSum() == s1 {
			return true
		}
	}
}

// shortValidateROVal value-validates the first n read-only entries.
// Entries we locked ourselves (upgrades) validate against the pre-lock
// value.
func (t *Thr) shortValidateROVal(n int) bool {
	s := &t.short
	for j := 0; j < n; j++ {
		cur := atomic.LoadUint64(s.rData[j])
		if cur == s.rSeen[j] {
			continue
		}
		if word.Locked(cur) && word.LockOwner(cur) == t.owner && t.ownSeenVal(s.rData[j]) == s.rSeen[j] {
			continue
		}
		return false
	}
	return true
}

// ownSeenVal returns the pre-lock value recorded for a data location we
// hold (val layout), or ^0 when not found.
func (t *Thr) ownSeenVal(data *uint64) uint64 {
	s := &t.short
	for k := 0; k < s.nw; k++ {
		if s.wData[k] == data {
			return s.wSeen[k]
		}
	}
	return ^uint64(0)
}

// shortROValid implements Tx_RO_n_Is_Valid: the commit of a read-only
// short transaction ("successful validation serves in the place of
// commit", §2.2). The record stays readable so combined transactions can
// continue; conflicting validation releases nothing because RO holds no
// locks. An arity other than the record's comes from a stale descriptor
// and panics: validating the record's reads would validate a different
// transaction.
func (t *Thr) shortROValid(n int) bool {
	s := &t.short
	if !s.valid {
		return false
	}
	if s.nr != n {
		panic(fmt.Sprintf("core: RO valid arity %d but %d locations read", n, s.nr))
	}
	var ok bool
	switch t.rp {
	case rpValNoCnt:
		ok = t.shortValidateROVal(n)
	case rpValCnt:
		ok = t.valExtend(n)
	default:
		ok = t.shortValidateROVersioned(n)
	}
	if !ok {
		t.failShort()
		return false
	}
	s.done = true
	t.Stats.ShortCommits++
	return true
}

// ShortDiscard abandons the current short-transaction record, releasing
// any locks it holds. The paper's stack-allocated records are discarded
// by simply dropping them (§2.2); with the reused per-thread descriptor
// the discard is explicit. It is needed only to abandon an open
// read-only record before starting an unrelated RW transaction.
func (t *Thr) ShortDiscard() {
	s := &t.short
	if s.valid {
		t.releaseShortLocks()
	}
	s.valid = false
	s.done = true
}

// shortUpgrade implements Tx_Upgrade_RO_x_To_RW_y: promote read entry x
// (0-based) to write entry y, which must be the next write index. Returns
// false — invalidating the record — if the location changed since it was
// read.
func (t *Thr) shortUpgrade(x, y int) bool {
	s := &t.short
	if !s.valid {
		return false
	}
	if x >= s.nr {
		panic(fmt.Sprintf("core: upgrade of read index %d but only %d reads", x+1, s.nr))
	}
	if y != s.nw {
		panic(fmt.Sprintf("core: upgrade to write index %d but next is %d", y+1, s.nw+1))
	}
	if s.rMeta[x] != nil {
		// Versioned: lock iff version unchanged since the read.
		meta := s.rMeta[x]
		for k := 0; k < s.nw; k++ {
			if s.wMeta[k] == meta {
				// Orec collision with a location we already hold: the
				// upgrade succeeds iff no commit slipped in between.
				if s.wSeen[k] != s.rSeen[x] {
					t.failShort()
					return false
				}
				s.wMeta[y], s.wData[y], s.wSeen[y], s.wDup[y] = meta, s.rData[x], s.rSeen[x], true
				s.nw = y + 1
				return true
			}
		}
		if !vlock.TryLock(meta, s.rSeen[x], t.owner) {
			t.failShort()
			return false
		}
		s.wMeta[y], s.wData[y], s.wSeen[y], s.wDup[y] = meta, s.rData[x], s.rSeen[x], false
		s.nw = y + 1
		return true
	}
	// Val layout: lock by CASing the exact value read.
	if !atomic.CompareAndSwapUint64(s.rData[x], s.rSeen[x], word.LockWord(t.owner)) {
		t.failShort()
		return false
	}
	s.wMeta[y], s.wData[y], s.wSeen[y], s.wDup[y] = nil, s.rData[x], s.rSeen[x], false
	s.nw = y + 1
	return true
}

// shortCommitRORW implements Tx_RO_x_RW_y_Commit: validate the x
// read-only entries while holding the y write locks, then publish.
// Returns false (and releases everything) on a validation conflict.
func (t *Thr) shortCommitRORW(x, y int, vals [MaxShort]Value) bool {
	s := &t.short
	if !s.valid {
		return false
	}
	if s.nw != y {
		panic(fmt.Sprintf("core: combined commit arity RW=%d but %d locations locked", y, s.nw))
	}
	if x != s.nr {
		panic(fmt.Sprintf("core: combined commit arity RO=%d but %d reads", x, s.nr))
	}
	var ok bool
	switch t.rp {
	case rpValNoCnt:
		ok = t.shortValidateROVal(x)
	case rpValCnt:
		ok = t.shortValidateROValStable(x)
	default:
		ok = t.shortValidateROVersioned(x)
	}
	if !ok {
		t.failShort()
		return false
	}
	t.publishAndRelease(y, vals)
	s.valid = false
	t.Stats.ShortCommits++
	return true
}

// checkEncodable panics when a value would corrupt the val layout's lock
// bit. This is the runtime misuse detection the paper describes (§2.2
// "Incorrect uses of the SpecTM interface can typically be detected at
// runtime"); values produced by word.FromUint always pass.
func checkEncodable(v Value) {
	if word.Locked(uint64(v)) {
		panic(fmt.Sprintf("core: value %#x has the reserved lock bit set", uint64(v)))
	}
}
