// Package txnpath holds fixtures for the txnpath analyzer: every path
// that opens a lock-holding short transaction must reach Commit/Abort.
package txnpath

import "spectm/internal/core"

// ---- violations ----

func leakReturn(t *core.Thr, a, b core.Var) core.Value {
	d, v1, _ := t.ShortRW2(a, b)
	if v1 == 0 {
		return 0 // want "return reached with a lock-holding short transaction still open"
	}
	d.Commit(v1, v1)
	return v1
}

func leakEnd(t *core.Thr, a core.Var) {
	_, _ = t.ShortRW1(a)
} // want "function end reached with a lock-holding short transaction still open"

func leakPanic(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	if v == 0 {
		panic("zero") // want "panic reached with a lock-holding short transaction still open"
	}
	d.Commit(v)
}

func leakContinue(t *core.Thr, a core.Var) {
	for i := 0; i < 8; i++ {
		d, v := t.ShortRW1(a)
		if v == 0 {
			continue // want "continue reached with a lock-holding short transaction still open"
		}
		d.Commit(v)
	}
}

func leakIteration(t *core.Thr, a core.Var) {
	for {
		d, v := t.ShortRW1(a)
		if v != 0 {
			d.Commit(v)
			break
		}
	} // want "next loop iteration reached with a lock-holding short transaction still open"
}

func doubleOpen(t *core.Thr, a, b core.Var) {
	d, v := t.ShortRW1(a)
	e, w := t.ShortRW1(b) // want "short transaction opened while a lock-holding one is still undecided"
	e.Commit(w)
	d.Commit(v)
}

// ---- legal idioms ----

func okCommit(t *core.Thr, a, b core.Var) {
	d, v1, v2 := t.ShortRW2(a, b)
	d.Commit(v1, v2)
}

func okAbortPath(t *core.Thr, a core.Var) core.Value {
	d, v := t.ShortRW1(a)
	if v == 0 {
		d.Abort()
		return 0
	}
	d.Commit(v + 1)
	return v
}

// A false Valid() releases the locks itself: the retry path is closed.
func okValidRetry(t *core.Thr, a, b core.Var) {
	for {
		d, v, _ := t.ShortRW2(a, b)
		if !d.Valid() {
			continue
		}
		d.Commit(v, v)
		return
	}
}

// The shardmap CAS idiom: a failed Upgrade auto-releases, and the
// combined Commit is terminal whether it reports success or not.
func okUpgrade(t *core.Thr, a, b core.Var, old, new core.Value) bool {
	for {
		d, v1, _ := t.ShortRO2(a, b)
		if !d.Valid() {
			continue
		}
		if v1 != old {
			return false // RO descriptors hold no locks
		}
		if c, up := d.Upgrade2(); up && c.Commit(new) {
			return true
		}
	}
}

// Read-only snapshots may simply be dropped.
func okRODrop(t *core.Thr, a core.Var) core.Value {
	_, v := t.ShortRO1(a)
	return v
}

func okLockRead(t *core.Thr, a, b core.Var, v core.Value) bool {
	ro, _ := t.ShortRO1(a)
	c, _ := ro.LockRead(b)
	return c.Commit(v)
}

// A deferred Abort covers every return path.
func okDefer(t *core.Thr, a core.Var) core.Value {
	d, v := t.ShortRW1(a)
	defer d.Abort()
	return v
}

// The suppression grammar silences a finding with a justification.
func okSuppressed(t *core.Thr, a core.Var) {
	_, _ = t.ShortRW1(a)
	//lint:ignore txnpath fixture exercising the suppression directive
}

// ---- scan-path violations (ordered-index iteration) ----

// A scan loop that advances to the next entry while still holding the
// previous entry's lock deadlocks against writers of that entry.
func scanLoopReopen(t *core.Thr, a, b core.Var) {
	d, v := t.ShortRW1(a)
	for i := 0; i < 4; i++ {
		e, w := t.ShortRW1(b) // want "short transaction opened while a lock-holding one is still undecided"
		e.Commit(w)
	}
	d.Commit(v)
}

// Advancing the cursor with the per-entry transaction undecided leaks
// the entry lock into the next iteration.
func scanAdvanceLeak(t *core.Thr, a core.Var) {
	for i := 0; i < 8; i++ {
		d, v := t.ShortRW1(a)
		if v == 0 {
			continue // want "continue reached with a lock-holding short transaction still open"
		}
		d.Commit(v)
	}
}

// The legal scan shape: membership from lock-free navigation, each
// candidate verified and its value read with a fresh RO pair (no locks).
func okScanVerify(t *core.Thr, link, val core.Var) (core.Value, bool) {
	d, lv, v := t.ShortRO2(link, val)
	if !d.Valid() || lv == 0 {
		return 0, false
	}
	return v, true
}
