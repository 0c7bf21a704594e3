// Shared skip-list machinery: towers, the iterator, the one search of
// the paper's Figure 4 that all three skip lists walk (SkipFull with
// txReader, inside its transaction), and the "stepper" abstraction that
// lets the same §3 algorithm run over two kinds of mini-transactions:
//
//   - shortSteps: Tx_Single_* plus short RW transactions (SpecTM proper);
//   - fineSteps:  the same steps expressed as small ordinary
//     transactions, which is exactly the paper's "orec-full-g (fine)"
//     control experiment (Fig 6(a)) showing that fine-grained
//     transactions without the specialized implementation don't pay off.
package stmset

import (
	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// MaxLevel matches the paper ("We set the maximum height of the skip
// list nodes to 32").
const MaxLevel = 32

// tower is a skip-list node (the paper's Tower struct).
type tower struct {
	key  uint64
	lvl  int32
	next [MaxLevel]core.Cell
}

// skipShared is the storage common to all transactional skip lists.
type skipShared struct {
	e       *core.Engine
	a       *arena.Arena[tower]
	head    [MaxLevel]core.Cell
	headLvl core.Cell // the paper's head.lvl
}

func newSkipShared(e *core.Engine) *skipShared {
	s := &skipShared{e: e, a: arena.New[tower]()}
	for i := range s.head {
		s.head[i].Init(word.Null)
	}
	s.headLvl.Init(word.FromUint(1))
	return s
}

// headVar is the Var of head.next[l].
func (s *skipShared) headVar(l int) core.Var {
	return s.e.VarOf(&s.head[l], idHeadBase+uint64(l))
}

// lvlVar is the Var of head.lvl.
func (s *skipShared) lvlVar() core.Var { return s.e.VarOf(&s.headLvl, idHeadLvl) }

// towerVar is the Var of a tower's forward pointer at level l.
func (s *skipShared) towerVar(h arena.Handle, n *tower, l int) core.Var {
	return s.e.VarOf(&n.next[l], uint64(h)<<idNodeShift|uint64(l))
}

// linkVar resolves (handle, level) to a Var, with handle 0 meaning the
// head sentinel.
func (s *skipShared) linkVar(h arena.Handle, l int) core.Var {
	if h.IsNil() {
		return s.headVar(l)
	}
	return s.towerVar(h, s.a.Get(h), l)
}

// iter is the paper's Iterator: the insertion/removal window per level.
type iter struct {
	prev    [MaxLevel]core.Var   // link word to update at each level
	pval    [MaxLevel]word.Value // expected (unmarked) value of that link
	headLvl int                  // head level observed by the search
}

// stepOutcome classifies a mini-transaction attempt.
type stepOutcome int

const (
	stepCommitted stepOutcome = iota
	stepUserAbort             // the step function declined to commit
	stepConflict              // lock/validation conflict; restart the op
)

// reader is the one step a search needs: read a link word.
type reader interface {
	read(t *core.Thr, v core.Var) word.Value
}

// stepper abstracts the mini-transactions the skip list is built from.
type stepper interface {
	// read is a 1-location read-only transaction.
	reader
	// cas is a 1-location compare-and-swap transaction; it returns the
	// witnessed value (== old means success).
	cas(t *core.Thr, v core.Var, old, new word.Value) word.Value
	// rmw2 atomically reads v0,v1 and applies f; f returns the values to
	// store and whether to commit.
	rmw2(t *core.Thr, v0, v1 core.Var, f func(x0, x1 word.Value) (word.Value, word.Value, bool)) stepOutcome
	// rmw4 is the 4-location analogue.
	rmw4(t *core.Thr, v [4]core.Var, f func(x [4]word.Value) ([4]word.Value, bool)) stepOutcome
}

// headLevel reads head.lvl, clamped to [1, MaxLevel].
func (s *skipShared) headLevel(r reader, t *core.Thr) int {
	return min(max(int(r.read(t, s.lvlVar()).Uint()), 1), MaxLevel)
}

// search is the paper's Skiplist::Search (Fig 4): a walk from the
// observed head level down, unmarking deleted pointers and recording the
// window in it. It returns the level-0 candidate. Levels in
// [headLvl, fillTo) get head/null defaults — an inserting caller passes
// its tower height so a head raise finds a coherent window; other
// callers pass 0. A Null read ends the walk, so a doomed ordinary
// transaction stops early and its caller's commit fails.
func search(s *skipShared, r reader, t *core.Thr, key uint64, it *iter, fillTo int) (arena.Handle, bool) {
	hl := s.headLevel(r, t)
	it.headLvl = hl
	for l := hl; l < fillTo; l++ {
		it.prev[l] = s.headVar(l)
		it.pval[l] = word.Null
	}
	prev := arena.Handle(0) // head sentinel
	var cur word.Value
	for l := hl - 1; l >= 0; l-- {
		cur = r.read(t, s.linkVar(prev, l)).WithoutMark()
		for !cur.IsNull() {
			c := dec(cur)
			n := s.a.Get(c)
			if n.key >= key {
				break
			}
			prev = c
			cur = r.read(t, s.towerVar(c, n, l)).WithoutMark()
		}
		it.prev[l] = s.linkVar(prev, l)
		it.pval[l] = cur
	}
	if cur.IsNull() {
		return 0, false
	}
	c := dec(cur)
	return c, s.a.Get(c).key == key
}

// lookup is a slim membership walk without iterator bookkeeping, for
// Contains. Towers link and unlink at all levels atomically, so finding
// the key via an unmarked link at any level is a valid linearization.
func lookup(s *skipShared, r reader, t *core.Thr, key uint64) bool {
	prev := arena.Handle(0)
	for l := s.headLevel(r, t) - 1; l >= 0; l-- {
		cur := r.read(t, s.linkVar(prev, l)).WithoutMark()
		for !cur.IsNull() {
			c := dec(cur)
			n := s.a.Get(c)
			if n.key >= key {
				if n.key == key {
					return true
				}
				break
			}
			prev = c
			cur = r.read(t, s.towerVar(c, n, l)).WithoutMark()
		}
	}
	return false
}

// shortSteps implements stepper with SpecTM's specialized API.
type shortSteps struct{}

func (shortSteps) read(t *core.Thr, v core.Var) word.Value { return t.SingleRead(v) }

func (shortSteps) cas(t *core.Thr, v core.Var, old, new word.Value) word.Value {
	return t.SingleCAS(v, old, new)
}

func (shortSteps) rmw2(t *core.Thr, v0, v1 core.Var, f func(x0, x1 word.Value) (word.Value, word.Value, bool)) stepOutcome {
	d, x0, x1 := t.ShortRW2(v0, v1)
	if !d.Valid() {
		return stepConflict
	}
	y0, y1, ok := f(x0, x1)
	if !ok {
		d.Abort()
		return stepUserAbort
	}
	d.Commit(y0, y1)
	return stepCommitted
}

func (shortSteps) rmw4(t *core.Thr, v [4]core.Var, f func(x [4]word.Value) ([4]word.Value, bool)) stepOutcome {
	d, x0, x1, x2, x3 := t.ShortRW4(v[0], v[1], v[2], v[3])
	if !d.Valid() {
		return stepConflict
	}
	y, ok := f([4]word.Value{x0, x1, x2, x3})
	if !ok {
		d.Abort()
		return stepUserAbort
	}
	d.Commit(y[0], y[1], y[2], y[3])
	return stepCommitted
}

// fineSteps implements stepper with small ordinary transactions.
type fineSteps struct{}

func (fineSteps) read(t *core.Thr, v core.Var) word.Value {
	for attempt := 1; ; attempt++ {
		t.TxStart()
		x := t.TxRead(v)
		if t.TxCommit() {
			return x
		}
		t.Backoff(attempt)
	}
}

func (fineSteps) cas(t *core.Thr, v core.Var, old, new word.Value) word.Value {
	for attempt := 1; ; attempt++ {
		t.TxStart()
		x := t.TxRead(v)
		if !t.TxOK() {
			t.TxCommit()
			t.Backoff(attempt)
			continue
		}
		if x != old {
			if t.TxCommit() {
				return x
			}
			t.Backoff(attempt)
			continue
		}
		t.TxWrite(v, new)
		if t.TxCommit() {
			return old
		}
		t.Backoff(attempt)
	}
}

func (fineSteps) rmw2(t *core.Thr, v0, v1 core.Var, f func(x0, x1 word.Value) (word.Value, word.Value, bool)) stepOutcome {
	t.TxStart()
	x0 := t.TxRead(v0)
	x1 := t.TxRead(v1)
	if !t.TxOK() {
		t.TxCommit()
		return stepConflict
	}
	y0, y1, ok := f(x0, x1)
	if !ok {
		t.TxAbort()
		return stepUserAbort
	}
	t.TxWrite(v0, y0)
	t.TxWrite(v1, y1)
	if t.TxCommit() {
		return stepCommitted
	}
	return stepConflict
}

func (fineSteps) rmw4(t *core.Thr, v [4]core.Var, f func(x [4]word.Value) ([4]word.Value, bool)) stepOutcome {
	t.TxStart()
	var x [4]word.Value
	for i := range v {
		x[i] = t.TxRead(v[i])
	}
	if !t.TxOK() {
		t.TxCommit()
		return stepConflict
	}
	y, ok := f(x)
	if !ok {
		t.TxAbort()
		return stepUserAbort
	}
	for i := range v {
		t.TxWrite(v[i], y[i])
	}
	if t.TxCommit() {
		return stepCommitted
	}
	return stepConflict
}
