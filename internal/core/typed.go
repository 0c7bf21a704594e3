// The short-transaction API. Each descriptor type carries the
// transaction's arity (and, for combined transactions, the read-only /
// read-write split) in the type itself, where Figure 2 of the paper
// carries it in the function name, so an arity mistake does not
// type-check: a ShortRW2 can only be committed with exactly two values.
// A stale descriptor, kept past the start of the thread's next
// transaction, panics at runtime when its arity disagrees with the
// record's.
//
// Descriptors are zero-state handles over the per-thread record (the
// paper keeps one TX_RECORD per thread, §4.1), so they are free to copy
// and never allocate. The lifecycle mirrors Figure 2 of the paper:
//
//	d, x, y := t.ShortRW2(a, b)     // Tx_RW_R1 + Tx_RW_R2
//	if !d.Valid() { restart }       // Tx_RW_2_Is_Valid
//	d.Commit(x1, y1)                // Tx_RW_2_Commit
//
// A transaction whose later locations depend on earlier reads is opened
// one location at a time with Extend:
//
//	d1, idx := t.ShortRW1(head)
//	d2, item := d1.Extend(slot(idx.Uint()))
//
// Read-only transactions follow the same shape; Valid doubles as the
// commit ("successful validation serves in the place of commit", §2.2).
// Upgrade promotes a read-only entry to a locked write entry, producing
// a combined descriptor whose Commit validates the read-only entries
// while holding the write locks; LockRead adds a fresh locked location
// to an open read-only transaction (Figure 2's mixing of Tx_RO_* and
// Tx_RW_* operations).
//
// The DoRWn / DoROn combinators package the validate-or-restart loop
// that every data structure otherwise hand-rolls: they retry on
// conflicts (with randomized backoff), and hand the consistent snapshot
// to a caller-supplied body that decides between commit and abort.
package core

// ShortRW1 is an open 1-location short read-write transaction.
type ShortRW1 struct{ t *Thr }

// ShortRW2 is an open 2-location short read-write transaction.
type ShortRW2 struct{ t *Thr }

// ShortRW3 is an open 3-location short read-write transaction.
type ShortRW3 struct{ t *Thr }

// ShortRW4 is an open 4-location short read-write transaction.
type ShortRW4 struct{ t *Thr }

// ShortRW1 starts a short read-write transaction, eagerly locking a and
// returning its value. An open read-only transaction on the same thread
// joins in, forming a combined transaction — use the RO descriptor's
// LockRead for that instead; it returns the properly typed combined
// descriptor.
func (t *Thr) ShortRW1(a Var) (ShortRW1, Value) {
	return ShortRW1{t}, t.shortRWRead(0, a)
}

// ShortRW2 starts a short read-write transaction over a and b, locking
// both. Use ShortRW1 followed by Extend when b depends on a's value.
func (t *Thr) ShortRW2(a, b Var) (ShortRW2, Value, Value) {
	x := t.shortRWRead(0, a)
	y := t.shortRWRead(1, b)
	return ShortRW2{t}, x, y
}

// ShortRW3 starts a short read-write transaction over three locations.
func (t *Thr) ShortRW3(a, b, c Var) (ShortRW3, Value, Value, Value) {
	x := t.shortRWRead(0, a)
	y := t.shortRWRead(1, b)
	z := t.shortRWRead(2, c)
	return ShortRW3{t}, x, y, z
}

// ShortRW4 starts a short read-write transaction over four locations
// (the API's maximum, MaxShort).
func (t *Thr) ShortRW4(a, b, c, d Var) (ShortRW4, Value, Value, Value, Value) {
	x := t.shortRWRead(0, a)
	y := t.shortRWRead(1, b)
	z := t.shortRWRead(2, c)
	w := t.shortRWRead(3, d)
	return ShortRW4{t}, x, y, z, w
}

// Extend locks one more location, growing the transaction's arity by
// one. On a conflicted (invalid) transaction it is a no-op returning 0.
func (d ShortRW1) Extend(b Var) (ShortRW2, Value) { return ShortRW2{d.t}, d.t.shortRWRead(1, b) }

// Extend locks a third location.
func (d ShortRW2) Extend(c Var) (ShortRW3, Value) { return ShortRW3{d.t}, d.t.shortRWRead(2, c) }

// Extend locks a fourth location.
func (d ShortRW3) Extend(c Var) (ShortRW4, Value) { return ShortRW4{d.t}, d.t.shortRWRead(3, c) }

// Valid reports whether the transaction still holds all its locks. An
// invalid transaction has already released everything; restart it.
func (d ShortRW1) Valid() bool { return d.t.shortRWValid(1) }

// Valid reports whether the transaction still holds all its locks.
func (d ShortRW2) Valid() bool { return d.t.shortRWValid(2) }

// Valid reports whether the transaction still holds all its locks.
func (d ShortRW3) Valid() bool { return d.t.shortRWValid(3) }

// Valid reports whether the transaction still holds all its locks.
func (d ShortRW4) Valid() bool { return d.t.shortRWValid(4) }

// Commit stores v1 and releases. Panics if the transaction is invalid
// (check Valid first) or its arity does not match the descriptor.
func (d ShortRW1) Commit(v1 Value) { d.t.shortRWCommit(1, [MaxShort]Value{v1}) }

// Commit stores v1, v2 in access order and releases.
func (d ShortRW2) Commit(v1, v2 Value) { d.t.shortRWCommit(2, [MaxShort]Value{v1, v2}) }

// Commit stores v1..v3 in access order and releases.
func (d ShortRW3) Commit(v1, v2, v3 Value) { d.t.shortRWCommit(3, [MaxShort]Value{v1, v2, v3}) }

// Commit stores v1..v4 in access order and releases.
func (d ShortRW4) Commit(v1, v2, v3, v4 Value) {
	d.t.shortRWCommit(4, [MaxShort]Value{v1, v2, v3, v4})
}

// Abort abandons the transaction, restoring every location. Aborting an
// already-conflicted (or already-finished) transaction is a no-op.
func (d ShortRW1) Abort() { d.t.shortRWAbort(1) }

// Abort abandons the transaction, restoring every location.
func (d ShortRW2) Abort() { d.t.shortRWAbort(2) }

// Abort abandons the transaction, restoring every location.
func (d ShortRW3) Abort() { d.t.shortRWAbort(3) }

// Abort abandons the transaction, restoring every location.
func (d ShortRW4) Abort() { d.t.shortRWAbort(4) }

// ShortRO1 is an open 1-location short read-only transaction.
type ShortRO1 struct{ t *Thr }

// ShortRO2 is an open 2-location short read-only transaction.
type ShortRO2 struct{ t *Thr }

// ShortRO3 is an open 3-location short read-only transaction.
type ShortRO3 struct{ t *Thr }

// ShortRO4 is an open 4-location short read-only transaction.
type ShortRO4 struct{ t *Thr }

// ShortRO1 starts a short read-only transaction with an invisible read
// of a.
func (t *Thr) ShortRO1(a Var) (ShortRO1, Value) {
	return ShortRO1{t}, t.shortRORead(0, a)
}

// ShortRO2 starts a short read-only transaction over a and b.
func (t *Thr) ShortRO2(a, b Var) (ShortRO2, Value, Value) {
	x := t.shortRORead(0, a)
	y := t.shortRORead(1, b)
	return ShortRO2{t}, x, y
}

// ShortRO3 starts a short read-only transaction over three locations.
func (t *Thr) ShortRO3(a, b, c Var) (ShortRO3, Value, Value, Value) {
	x := t.shortRORead(0, a)
	y := t.shortRORead(1, b)
	z := t.shortRORead(2, c)
	return ShortRO3{t}, x, y, z
}

// ShortRO4 starts a short read-only transaction over four locations.
func (t *Thr) ShortRO4(a, b, c, d Var) (ShortRO4, Value, Value, Value, Value) {
	x := t.shortRORead(0, a)
	y := t.shortRORead(1, b)
	z := t.shortRORead(2, c)
	w := t.shortRORead(3, d)
	return ShortRO4{t}, x, y, z, w
}

// Extend reads one more location into the snapshot.
func (d ShortRO1) Extend(b Var) (ShortRO2, Value) { return ShortRO2{d.t}, d.t.shortRORead(1, b) }

// Extend reads a third location into the snapshot.
func (d ShortRO2) Extend(c Var) (ShortRO3, Value) { return ShortRO3{d.t}, d.t.shortRORead(2, c) }

// Extend reads a fourth location into the snapshot.
func (d ShortRO3) Extend(c Var) (ShortRO4, Value) { return ShortRO4{d.t}, d.t.shortRORead(3, c) }

// Valid validates the snapshot; success is the read-only transaction's
// commit (§2.2). The record stays open, so a combined transaction can
// still continue from it via Extend, Upgrade* or LockRead (the
// eventual combined commit revalidates the snapshot).
func (d ShortRO1) Valid() bool { return d.t.shortROValid(1) }

// Valid validates the 2-location snapshot.
func (d ShortRO2) Valid() bool { return d.t.shortROValid(2) }

// Valid validates the 3-location snapshot.
func (d ShortRO3) Valid() bool { return d.t.shortROValid(3) }

// Valid validates the 4-location snapshot.
func (d ShortRO4) Valid() bool { return d.t.shortROValid(4) }

// Discard abandons the read-only transaction without validating it.
func (d ShortRO1) Discard() { d.t.ShortDiscard() }

// Discard abandons the read-only transaction without validating it.
func (d ShortRO2) Discard() { d.t.ShortDiscard() }

// Discard abandons the read-only transaction without validating it.
func (d ShortRO3) Discard() { d.t.ShortDiscard() }

// Discard abandons the read-only transaction without validating it.
func (d ShortRO4) Discard() { d.t.ShortDiscard() }

// Upgrade promotes the transaction's only read to a locked write entry
// (Tx_Upgrade_RO_1_To_RW_1). False means the location changed since it
// was read; the record is invalid and must be restarted.
func (d ShortRO1) Upgrade() (ShortRO1RW1, bool) { return ShortRO1RW1{d.t}, d.t.shortUpgrade(0, 0) }

// Upgrade1 promotes the first read to the transaction's first write.
func (d ShortRO2) Upgrade1() (ShortRO2RW1, bool) { return ShortRO2RW1{d.t}, d.t.shortUpgrade(0, 0) }

// Upgrade2 promotes the second read to the transaction's first write.
func (d ShortRO2) Upgrade2() (ShortRO2RW1, bool) { return ShortRO2RW1{d.t}, d.t.shortUpgrade(1, 0) }

// Upgrade1 promotes the first read to the transaction's first write.
func (d ShortRO3) Upgrade1() (ShortRO3RW1, bool) { return ShortRO3RW1{d.t}, d.t.shortUpgrade(0, 0) }

// Upgrade2 promotes the second read to the transaction's first write.
func (d ShortRO3) Upgrade2() (ShortRO3RW1, bool) { return ShortRO3RW1{d.t}, d.t.shortUpgrade(1, 0) }

// Upgrade3 promotes the third read to the transaction's first write.
func (d ShortRO3) Upgrade3() (ShortRO3RW1, bool) { return ShortRO3RW1{d.t}, d.t.shortUpgrade(2, 0) }

// Upgrade1 promotes the first read to the transaction's first write.
func (d ShortRO4) Upgrade1() (ShortRO4RW1, bool) { return ShortRO4RW1{d.t}, d.t.shortUpgrade(0, 0) }

// lockReadJoin implements the ShortROn.LockRead methods: an RW read
// joining the open read-only record as its first write. On a
// conflicted (invalid) record it is a no-op returning 0 — the combined
// commit will report failure and the caller restarts — and on a
// validated (done) record it re-opens the snapshot, which the combined
// commit revalidates under the lock.
func (t *Thr) lockReadJoin(v Var) Value {
	s := &t.short
	if !s.valid {
		return 0
	}
	if s.done {
		// Re-opening a validated snapshot: the validation's provisional
		// commit count is superseded by the combined commit's.
		s.done = false
		t.Stats.ShortCommits--
	}
	return t.shortRWRead(0, v)
}

// LockRead adds a fresh locked (read-write) location to the open
// read-only transaction, forming a combined transaction whose Commit
// validates the read-only entry while holding the lock. It may follow
// a successful Valid — the commit revalidates the snapshot — and on a
// conflicted transaction it is a no-op whose Commit reports failure.
func (d ShortRO1) LockRead(b Var) (ShortRO1RW1, Value) {
	return ShortRO1RW1{d.t}, d.t.lockReadJoin(b)
}

// LockRead adds a fresh locked location to the 2-read transaction.
func (d ShortRO2) LockRead(b Var) (ShortRO2RW1, Value) {
	return ShortRO2RW1{d.t}, d.t.lockReadJoin(b)
}

// LockRead adds a fresh locked location to the 3-read transaction,
// reaching MaxShort distinct locations. (ShortRO4 deliberately has no
// LockRead: a fifth distinct location would exceed MaxShort; upgrade
// one of its reads instead.)
func (d ShortRO3) LockRead(b Var) (ShortRO3RW1, Value) {
	return ShortRO3RW1{d.t}, d.t.lockReadJoin(b)
}

// Combined short-transaction descriptors: ShortROxRWy holds y write
// locks and will validate x read-only entries at commit
// (Tx_RO_x_RW_y_Commit). Commit returns false — releasing everything —
// on a validation conflict; the caller restarts.

// ShortRO1RW1 is a combined transaction: 1 read-only entry, 1 write.
type ShortRO1RW1 struct{ t *Thr }

// ShortRO1RW2 is a combined transaction: 1 read-only entry, 2 writes.
type ShortRO1RW2 struct{ t *Thr }

// ShortRO1RW3 is a combined transaction: 1 read-only entry, 3 writes.
type ShortRO1RW3 struct{ t *Thr }

// ShortRO2RW1 is a combined transaction: 2 read-only entries, 1 write.
type ShortRO2RW1 struct{ t *Thr }

// ShortRO2RW2 is a combined transaction: 2 read-only entries, 2 writes.
type ShortRO2RW2 struct{ t *Thr }

// ShortRO3RW1 is a combined transaction: 3 read-only entries, 1 write.
type ShortRO3RW1 struct{ t *Thr }

// ShortRO3RW2 is a combined transaction: 3 read-only entries, 2 writes.
type ShortRO3RW2 struct{ t *Thr }

// ShortRO4RW1 is a combined transaction: 4 read-only entries, 1 write.
type ShortRO4RW1 struct{ t *Thr }

// Commit validates the read-only entry under the held lock, stores v1
// and releases. False means a conflict; everything is released.
func (d ShortRO1RW1) Commit(v1 Value) bool {
	return d.t.shortCommitRORW(1, 1, [MaxShort]Value{v1})
}

// Commit validates the read-only entry, stores v1, v2 and releases.
func (d ShortRO1RW2) Commit(v1, v2 Value) bool {
	return d.t.shortCommitRORW(1, 2, [MaxShort]Value{v1, v2})
}

// Commit validates the read-only entry, stores v1..v3 and releases.
func (d ShortRO1RW3) Commit(v1, v2, v3 Value) bool {
	return d.t.shortCommitRORW(1, 3, [MaxShort]Value{v1, v2, v3})
}

// Commit validates both read-only entries, stores v1 and releases.
func (d ShortRO2RW1) Commit(v1 Value) bool {
	return d.t.shortCommitRORW(2, 1, [MaxShort]Value{v1})
}

// Commit validates both read-only entries, stores v1, v2 and releases.
func (d ShortRO2RW2) Commit(v1, v2 Value) bool {
	return d.t.shortCommitRORW(2, 2, [MaxShort]Value{v1, v2})
}

// Commit validates the three read-only entries, stores v1 and releases.
func (d ShortRO3RW1) Commit(v1 Value) bool {
	return d.t.shortCommitRORW(3, 1, [MaxShort]Value{v1})
}

// Commit validates the three read-only entries, stores v1, v2 and
// releases.
func (d ShortRO3RW2) Commit(v1, v2 Value) bool {
	return d.t.shortCommitRORW(3, 2, [MaxShort]Value{v1, v2})
}

// Commit validates the four read-only entries, stores v1 and releases.
func (d ShortRO4RW1) Commit(v1 Value) bool {
	return d.t.shortCommitRORW(4, 1, [MaxShort]Value{v1})
}

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO1RW1) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO1RW2) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO1RW3) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO2RW1) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO2RW2) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO3RW1) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO3RW2) Discard() { d.t.ShortDiscard() }

// Discard abandons the combined transaction, releasing its locks.
func (d ShortRO4RW1) Discard() { d.t.ShortDiscard() }

// Upgrade1 promotes the first read-only entry to the second write
// (Tx_Upgrade_RO_1_To_RW_2).
func (d ShortRO2RW1) Upgrade1() (ShortRO2RW2, bool) {
	return ShortRO2RW2{d.t}, d.t.shortUpgrade(0, 1)
}

// Upgrade2 promotes the second read-only entry to the second write
// (Tx_Upgrade_RO_2_To_RW_2).
func (d ShortRO2RW1) Upgrade2() (ShortRO2RW2, bool) {
	return ShortRO2RW2{d.t}, d.t.shortUpgrade(1, 1)
}

// Upgrade2 promotes the second read-only entry to the second write.
func (d ShortRO3RW1) Upgrade2() (ShortRO3RW2, bool) {
	return ShortRO3RW2{d.t}, d.t.shortUpgrade(1, 1)
}

// Upgrade3 promotes the third read-only entry to the second write
// (Tx_Upgrade_RO_3_To_RW_2).
func (d ShortRO3RW1) Upgrade3() (ShortRO3RW2, bool) {
	return ShortRO3RW2{d.t}, d.t.shortUpgrade(2, 1)
}

// LockRead adds a fresh locked location as the second write of the
// combined transaction.
func (d ShortRO1RW1) LockRead(b Var) (ShortRO1RW2, Value) {
	return ShortRO1RW2{d.t}, d.t.shortRWRead(1, b)
}

// LockRead adds a fresh locked location as the third write.
func (d ShortRO1RW2) LockRead(b Var) (ShortRO1RW3, Value) {
	return ShortRO1RW3{d.t}, d.t.shortRWRead(2, b)
}

// LockRead adds a fresh locked location as the second write.
func (d ShortRO2RW1) LockRead(b Var) (ShortRO2RW2, Value) {
	return ShortRO2RW2{d.t}, d.t.shortRWRead(1, b)
}

// Retry combinators. Each DoRWn runs one n-location short read-write
// transaction to completion: it opens the transaction, retries with
// randomized backoff while lock acquisition conflicts invalidate it,
// and then hands the (stable, locked) values to f. f returns the values
// to commit and whether to commit at all; returning false aborts and
// DoRWn reports false. Locations are fixed across retries — operations
// whose later locations depend on earlier reads use the staged
// descriptor API directly.

// DoRW1 runs a 1-location read-modify-write transaction.
func DoRW1(t *Thr, a Var, f func(x1 Value) (Value, bool)) bool {
	for attempt := 1; ; attempt++ {
		d, x1 := t.ShortRW1(a)
		if !d.Valid() {
			t.Backoff(attempt)
			continue
		}
		y1, commit := f(x1)
		if !commit {
			d.Abort()
			return false
		}
		d.Commit(y1)
		return true
	}
}

// DoRW2 runs a 2-location read-modify-write transaction.
func DoRW2(t *Thr, a, b Var, f func(x1, x2 Value) (Value, Value, bool)) bool {
	for attempt := 1; ; attempt++ {
		d, x1, x2 := t.ShortRW2(a, b)
		if !d.Valid() {
			t.Backoff(attempt)
			continue
		}
		y1, y2, commit := f(x1, x2)
		if !commit {
			d.Abort()
			return false
		}
		d.Commit(y1, y2)
		return true
	}
}

// DoRW3 runs a 3-location read-modify-write transaction.
func DoRW3(t *Thr, a, b, c Var, f func(x1, x2, x3 Value) (Value, Value, Value, bool)) bool {
	for attempt := 1; ; attempt++ {
		d, x1, x2, x3 := t.ShortRW3(a, b, c)
		if !d.Valid() {
			t.Backoff(attempt)
			continue
		}
		y1, y2, y3, commit := f(x1, x2, x3)
		if !commit {
			d.Abort()
			return false
		}
		d.Commit(y1, y2, y3)
		return true
	}
}

// DoRW4 runs a 4-location read-modify-write transaction.
func DoRW4(t *Thr, a, b, c, cc Var, f func(x1, x2, x3, x4 Value) (Value, Value, Value, Value, bool)) bool {
	for attempt := 1; ; attempt++ {
		d, x1, x2, x3, x4 := t.ShortRW4(a, b, c, cc)
		if !d.Valid() {
			t.Backoff(attempt)
			continue
		}
		y1, y2, y3, y4, commit := f(x1, x2, x3, x4)
		if !commit {
			d.Abort()
			return false
		}
		d.Commit(y1, y2, y3, y4)
		return true
	}
}

// DoRO1 returns a validated read of a, retrying on conflicts.
func DoRO1(t *Thr, a Var) Value {
	for attempt := 1; ; attempt++ {
		d, x1 := t.ShortRO1(a)
		if d.Valid() {
			return x1
		}
		t.Backoff(attempt)
	}
}

// DoRO2 returns a consistent snapshot of a and b, retrying on
// conflicts.
func DoRO2(t *Thr, a, b Var) (Value, Value) {
	for attempt := 1; ; attempt++ {
		d, x1, x2 := t.ShortRO2(a, b)
		if d.Valid() {
			return x1, x2
		}
		t.Backoff(attempt)
	}
}

// DoRO3 returns a consistent snapshot of three locations.
func DoRO3(t *Thr, a, b, c Var) (Value, Value, Value) {
	for attempt := 1; ; attempt++ {
		d, x1, x2, x3 := t.ShortRO3(a, b, c)
		if d.Valid() {
			return x1, x2, x3
		}
		t.Backoff(attempt)
	}
}

// DoRO4 returns a consistent snapshot of four locations.
func DoRO4(t *Thr, a, b, c, cc Var) (Value, Value, Value, Value) {
	for attempt := 1; ; attempt++ {
		d, x1, x2, x3, x4 := t.ShortRO4(a, b, c, cc)
		if d.Valid() {
			return x1, x2, x3, x4
		}
		t.Backoff(attempt)
	}
}
