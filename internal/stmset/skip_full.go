// The ordinary-transaction skip list (BaseTM style, §2.1): every
// operation — including the search — is a single full transaction. This
// is the orec-full-*/tvar-full-* data structure of the evaluation.
package stmset

import (
	"spectm/internal/arena"
	"spectm/internal/core"
	"spectm/internal/word"
)

// SkipFull is the one-big-transaction skip list.
type SkipFull struct {
	s *skipShared
}

// NewSkipFull builds the BaseTM skip list over engine e.
func NewSkipFull(e *core.Engine) *SkipFull {
	return &SkipFull{s: newSkipShared(e)}
}

// NewThread registers a worker.
func (sk *SkipFull) NewThread() Thread {
	return &skipFullThread{s: sk.s, t: sk.s.e.Register()}
}

type skipFullThread struct {
	s  *skipShared
	t  *core.Thr
	it iter // reused search window
}

func (x *skipFullThread) Thr() *core.Thr { return x.t }

// txReader reads inside the caller's ordinary transaction.
type txReader struct{}

func (txReader) read(t *core.Thr, v core.Var) word.Value { return t.TxRead(v) }

// Contains reports membership of key.
func (x *skipFullThread) Contains(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	for attempt := 1; ; attempt++ {
		x.t.TxStart()
		_, found := search(x.s, txReader{}, x.t, key, &x.it, 0)
		if x.t.TxCommit() {
			return found
		}
		x.t.Backoff(attempt)
	}
}

// Add inserts key; false if present.
func (x *skipFullThread) Add(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	s := x.s
	t := x.t
	lvl := t.Rng.Level(MaxLevel)
	it := &x.it
	var spare arena.Handle
	for attempt := 1; ; attempt++ {
		t.TxStart()
		_, found := search(s, txReader{}, t, key, it, lvl)
		if found {
			if t.TxCommit() {
				if !spare.IsNil() {
					s.a.Free(spare)
				}
				return false
			}
			t.Backoff(attempt)
			continue
		}
		if t.TxOK() {
			if lvl > it.headLvl {
				t.TxWrite(s.lvlVar(), word.FromUint(uint64(lvl)))
			}
			if spare.IsNil() {
				var n *tower
				spare, n = s.a.Alloc()
				n.key = key
				n.lvl = int32(lvl)
			}
			n := s.a.Get(spare)
			for l := 0; l < lvl; l++ {
				n.next[l].Init(it.pval[l])
				t.TxWrite(it.prev[l], enc(spare))
			}
		}
		if t.TxCommit() {
			return true
		}
		t.Backoff(attempt)
	}
}

// Remove deletes key; false if absent.
func (x *skipFullThread) Remove(key uint64) bool {
	x.t.Epoch.Enter()
	defer x.t.Epoch.Exit()
	s := x.s
	t := x.t
	it := &x.it
	for attempt := 1; ; attempt++ {
		t.TxStart()
		cur, found := search(s, txReader{}, t, key, it, 0)
		if !found {
			if t.TxCommit() {
				return false
			}
			t.Backoff(attempt)
			continue
		}
		n := s.a.Get(cur)
		lvl := int(n.lvl)
		ok := t.TxOK()
		for l := 0; ok && l < lvl; l++ {
			// In a consistent snapshot the window at every linked level
			// ends exactly at the tower being removed.
			if it.pval[l] != enc(cur) {
				ok = false
				break
			}
			nx := t.TxRead(s.towerVar(cur, n, l))
			if !t.TxOK() {
				ok = false
				break
			}
			t.TxWrite(it.prev[l], nx)
		}
		if !ok {
			t.TxAbort()
			t.Backoff(attempt)
			continue
		}
		if t.TxCommit() {
			t.Epoch.Retire(s.a, uint64(cur))
			return true
		}
		t.Backoff(attempt)
	}
}
