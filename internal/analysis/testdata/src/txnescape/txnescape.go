// Package txnescape holds fixtures for the txnescape analyzer:
// descriptors must not outlive their function or their transaction.
package txnescape

import "spectm/internal/core"

// ---- escape sites ----

type holder struct {
	d core.ShortRW1 // want "struct field retains a ShortRW1 short-transaction descriptor"
}

var leaked core.ShortRO1 // want "package-level variable leaked retains a ShortRO1 short-transaction descriptor"

func storeGlobal(t *core.Thr, a core.Var) {
	d, v := t.ShortRO1(a)
	leaked = d // want "ShortRO1 short-transaction descriptor stored in package-level variable leaked"
	_ = v
}

func storeField(t *core.Thr, a core.Var, h *holder) {
	d, v := t.ShortRW1(a)
	h.d = d // want "ShortRW1 short-transaction descriptor stored in struct field d"
	_ = v
}

func storeMap(t *core.Thr, a core.Var, m map[int]core.ShortRO1) {
	d, v := t.ShortRO1(a)
	m[0] = d // want "ShortRO1 short-transaction descriptor stored in a map or slice element"
	_ = v
}

func returnDesc(t *core.Thr, a core.Var) core.ShortRW1 {
	d, v := t.ShortRW1(a)
	_ = v
	return d // want "ShortRW1 short-transaction descriptor returned from its opening function"
}

func sendDesc(t *core.Thr, a core.Var, ch chan core.ShortRO1) {
	d, v := t.ShortRO1(a)
	_ = v
	ch <- d // want "ShortRO1 short-transaction descriptor sent over a channel"
}

func storeLit(t *core.Thr, a core.Var) int {
	d, v := t.ShortRO1(a)
	_ = v
	s := []core.ShortRO1{d} // want "ShortRO1 short-transaction descriptor stored in a composite literal"
	return len(s)
}

func box(t *core.Thr, a core.Var, sink func(any)) {
	d, v := t.ShortRO1(a)
	_ = v
	sink(d) // want "ShortRO1 short-transaction descriptor passed as interface argument"
}

func capture(t *core.Thr, a core.Var) func() {
	d, v := t.ShortRO1(a)
	_ = v
	return func() { d.Discard() } // want "closure captures ShortRO1 short-transaction descriptor d"
}

func methodValue(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	f := d.Abort // want "method value binds a ShortRW1 short-transaction descriptor beyond the call site"
	f()
	_ = v
}

// ---- use after the transaction is decided ----

func useAfterCommit(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	d.Commit(v)
	d.Abort() // want "use of short-transaction descriptor d after Commit"
}

func useAfterBranch(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	if v == 0 {
		d.Abort()
	} else {
		d.Commit(v)
	}
	_ = d.Valid() // want "use of short-transaction descriptor d after"
}

func useAfterExtend(t *core.Thr, a, b core.Var) {
	d, v := t.ShortRW1(a)
	e, w := d.Extend(b)
	_ = d.Valid() // want "use of short-transaction descriptor d after Extend consumed it"
	e.Commit(v, w)
}

// ---- legal idioms ----

func okLocal(t *core.Thr, a core.Var) core.Value {
	d, v := t.ShortRW1(a)
	d.Commit(v)
	return v
}

// Reassignment revives the variable: the retry loop rebinding a fresh
// descriptor each round is the normal client shape.
func okReassign(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	d.Commit(v)
	d, v = t.ShortRW1(a)
	d.Commit(v + 1)
}

// One branch deciding the transaction does not kill the other branch.
func okBranch(t *core.Thr, a core.Var) {
	d, v := t.ShortRW1(a)
	if v == 0 {
		d.Abort()
		return
	}
	d.Commit(v)
}

func okTransitionChain(t *core.Thr, a, b core.Var) {
	d, v := t.ShortRW1(a)
	e, w := d.Extend(b)
	e.Commit(v, w)
}

// ---- scan-path escapes (ordered-index iteration) ----

// A scan callback that captures the verifying descriptor would let the
// callee decide (or outlive) the transaction that validates its entry.
func scanCallbackCapture(t *core.Thr, a, b core.Var, visit func(func())) {
	d, v1, _ := t.ShortRO2(a, b)
	visit(func() { _ = d.Valid() }) // want "closure captures ShortRO2 short-transaction descriptor d"
	_ = v1
}

// Stashing the per-entry descriptor in a cursor struct keeps it alive
// across scan steps — each step must open (and decide) its own.
type scanCursor struct {
	next core.ShortRO2 // want "struct field retains a ShortRO2 short-transaction descriptor"
	key  uint64
}

func scanStash(t *core.Thr, a, b core.Var, c *scanCursor) {
	d, v1, _ := t.ShortRO2(a, b)
	c.next = d // want "ShortRO2 short-transaction descriptor stored in struct field next"
	_ = v1
}

// Collecting descriptors instead of values turns a scan result slice
// into a pile of live transactions.
func scanCollect(t *core.Thr, a, b core.Var, out []core.ShortRO2) {
	d, v1, _ := t.ShortRO2(a, b)
	out[0] = d // want "ShortRO2 short-transaction descriptor stored in a map or slice element"
	_ = v1
}

// The legal shape: each scan step verifies its entry with a fresh RO
// pair and only plain values cross the callback boundary.
func okScanStep(t *core.Thr, a, b core.Var, visit func(uint64)) {
	d, v1, _ := t.ShortRO2(a, b)
	if d.Valid() {
		visit(v1.Uint())
	}
}
