// The SpecTM skip list of the paper's §3 (Figure 4): the common cases —
// towers of height 1 and 2 — use short specialized transactions (a
// single CAS or a 2/4-location RW transaction), and taller towers fall
// back to ordinary transactions on the same engine. This mixing is the
// paper's headline compositionality property.
//
// The same implementation, driven by fineSteps, becomes the
// "orec-full-g (fine)" variant of Fig 6(a): identical structure, every
// step an ordinary transaction.
package stmset

import (
	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// SkipSM is the mixed short/full-transaction skip list; st is the
// mini-transaction flavor its steps run as.
type SkipSM struct {
	s  *skipShared
	st stepper
}

// NewSkipShort builds the paper's SpecTM skip list over engine e
// (instantiate e with LayoutVal for the val-short variant, LayoutTVar
// for tvar-short-*, and so on).
func NewSkipShort(e *core.Engine) *SkipSM {
	return &SkipSM{s: newSkipShared(e), st: shortSteps{}}
}

// NewSkipFine builds the fine-grained ordinary-transaction control
// variant (Fig 6(a), "orec-full-g (fine)").
func NewSkipFine(e *core.Engine) *SkipSM {
	return &SkipSM{s: newSkipShared(e), st: fineSteps{}}
}

// NewThread registers a worker.
func (sk *SkipSM) NewThread() Thread {
	return &skipSMThread{s: sk.s, st: sk.st, t: sk.s.e.Register()}
}

type skipSMThread struct {
	s  *skipShared
	st stepper
	t  *core.Thr
	it iter // reused search window
}

func (x *skipSMThread) Thr() *core.Thr { return x.t }

// Contains searches with single-location reads.
func (x *skipSMThread) Contains(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	return lookup(x.s, x.st, x.t, key)
}

// Add inserts key; false if present. Height-1 towers link with a single
// CAS transaction, height-2 towers with one short RW2 transaction, and
// taller towers with an ordinary transaction (paper lines 39–44).
func (x *skipSMThread) Add(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	s := x.s
	lvl := x.t.Rng.Level(MaxLevel)
	var spare arena.Handle
	freeSpare := func() {
		if !spare.IsNil() {
			s.a.Free(spare)
		}
	}
	it := &x.it
	for attempt := 1; ; attempt++ {
		_, found := search(s, x.st, x.t, key, it, lvl)
		if found {
			freeSpare()
			return false
		}
		if spare.IsNil() {
			var n *tower
			spare, n = s.a.Alloc()
			n.key = key
			n.lvl = int32(lvl)
		}
		n := s.a.Get(spare)
		switch {
		case lvl == 1:
			n.next[0].Init(it.pval[0])
			if x.st.cas(x.t, it.prev[0], it.pval[0], enc(spare)) == it.pval[0] {
				return true
			}
		case lvl == 2 && it.headLvl >= 2:
			n.next[0].Init(it.pval[0])
			n.next[1].Init(it.pval[1])
			// Captured by value, so spare stays off the heap.
			link := enc(spare)
			out := x.st.rmw2(x.t, it.prev[0], it.prev[1],
				func(x0, x1 word.Value) (word.Value, word.Value, bool) {
					if x0 != it.pval[0] || x1 != it.pval[1] {
						return 0, 0, false // window moved; restart
					}
					return link, link, true
				})
			if out == stepCommitted {
				return true
			}
		default:
			// Taller towers (or a head raise) go through an ordinary
			// transaction, exactly as the paper's AddLevelN.
			if x.addLevelN(spare, lvl, it) {
				return true
			}
		}
		x.t.Backoff(attempt)
	}
}

// addLevelN links a tall tower inside one ordinary transaction. It
// returns false when the operation must be restarted from the search.
func (x *skipSMThread) addLevelN(h arena.Handle, lvl int, it *iter) bool {
	s := x.s
	t := x.t
	n := s.a.Get(h)
	t.TxStart()
	hl := int(t.TxRead(s.lvlVar()).Uint())
	if !t.TxOK() {
		t.TxCommit()
		return false
	}
	if lvl > hl {
		t.TxWrite(s.lvlVar(), word.FromUint(uint64(lvl)))
		for l := hl; l < lvl; l++ {
			it.prev[l] = s.headVar(l)
			it.pval[l] = word.Null
		}
	}
	for l := 0; l < lvl; l++ {
		nxt := t.TxRead(it.prev[l])
		if !t.TxOK() {
			t.TxCommit()
			return false
		}
		if nxt != it.pval[l] {
			t.TxAbort()
			return false
		}
		n.next[l].Init(it.pval[l])
		t.TxWrite(it.prev[l], enc(h))
	}
	return t.TxCommit()
}

// Remove deletes key; false if absent. Height-1 towers unlink with one
// short RW2 transaction (mark + splice atomically), height-2 towers with
// one RW4 transaction, and taller towers with an ordinary transaction.
func (x *skipSMThread) Remove(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	s := x.s
	it := &x.it
	for attempt := 1; ; attempt++ {
		cur, found := search(s, x.st, x.t, key, it, 0)
		if !found {
			return false
		}
		n := s.a.Get(cur)
		lvl := int(n.lvl)
		if lvl > it.headLvl {
			// The tower was inserted (with a head raise) after we
			// sampled the head level: our window lacks its top levels.
			// Re-search; the head level is monotone, so this settles.
			continue
		}
		switch {
		case lvl == 1:
			gone := false
			out := x.st.rmw2(x.t, s.towerVar(cur, n, 0), it.prev[0],
				func(x0, x1 word.Value) (word.Value, word.Value, bool) {
					if x0.Marked() {
						gone = true // concurrent removal won
						return 0, 0, false
					}
					if x1 != enc(cur) {
						return 0, 0, false // window moved; restart
					}
					return x0.WithMark(), x0, true
				})
			switch {
			case out == stepCommitted:
				x.t.Epoch.Retire(s.a, uint64(cur))
				return true
			case out == stepUserAbort && gone:
				return false
			}
		case lvl == 2:
			gone := false
			vars := [4]core.Var{s.towerVar(cur, n, 0), s.towerVar(cur, n, 1), it.prev[0], it.prev[1]}
			out := x.st.rmw4(x.t, vars, func(xv [4]word.Value) ([4]word.Value, bool) {
				if xv[0].Marked() {
					gone = true
					return [4]word.Value{}, false
				}
				if xv[2] != enc(cur) || xv[3] != enc(cur) {
					return [4]word.Value{}, false
				}
				return [4]word.Value{xv[0].WithMark(), xv[1].WithMark(), xv[0], xv[1]}, true
			})
			switch {
			case out == stepCommitted:
				x.t.Epoch.Retire(s.a, uint64(cur))
				return true
			case out == stepUserAbort && gone:
				return false
			}
		default:
			done, removed := x.removeLevelN(cur, n, lvl, it)
			if done {
				return removed
			}
		}
		x.t.Backoff(attempt)
	}
}

// removeLevelN unlinks a tall tower inside one ordinary transaction.
// done=false means restart from the search.
func (x *skipSMThread) removeLevelN(cur arena.Handle, n *tower, lvl int, it *iter) (done, removed bool) {
	s := x.s
	t := x.t
	t.TxStart()
	for l := 0; l < lvl; l++ {
		nx := t.TxRead(s.towerVar(cur, n, l))
		if !t.TxOK() {
			t.TxCommit()
			return false, false
		}
		if nx.Marked() {
			// Already logically removed in a consistent snapshot.
			t.TxAbort()
			return true, false
		}
		pv := t.TxRead(it.prev[l])
		if !t.TxOK() {
			t.TxCommit()
			return false, false
		}
		if pv != enc(cur) {
			t.TxAbort()
			return false, false
		}
		t.TxWrite(it.prev[l], nx)
		t.TxWrite(s.towerVar(cur, n, l), nx.WithMark())
	}
	if !t.TxCommit() {
		return false, false
	}
	t.Epoch.Retire(s.a, uint64(cur))
	return true, true
}
