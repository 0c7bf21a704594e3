package core

import (
	"fmt"
	"testing"

	"spectm/internal/word"
)

// TestTxWriteSet writes sets of 1–256 words, writes every word a second
// time, and reads every word back: a duplicate write keeps one entry
// holding the last value, a read after a write returns it, and a read of
// an unwritten word returns the committed value. The commit then
// publishes the last values.
func TestTxWriteSet(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"val", Config{Layout: LayoutVal}}, {"orec", Config{Layout: LayoutOrec}}} {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.cfg)
			th := e.Register()
			vars := benchVars(e, 257)
			init := make([]Value, len(vars))
			for i, v := range vars {
				init[i] = th.SingleRead(v)
			}
			val := func(w, i, round int) Value { return word.FromUint(uint64(w<<20 | i<<4 | round)) }
			for _, w := range []int{1, 2, 3, 15, 16, 17, 33, 64, 100, 255, 256} {
				th.TxStart()
				for round := 0; round < 2; round++ {
					for i := 0; i < w; i++ {
						j := i
						if round == 1 {
							j = w - 1 - i // rewrite in the other order
						}
						th.TxWrite(vars[j], val(w, j, round))
					}
				}
				if got := len(th.txn.writes); got != w {
					t.Fatalf("W=%d: %d write entries, want %d", w, got, w)
				}
				for i := 0; i < w; i++ {
					if got := th.TxRead(vars[i]); got != val(w, i, 1) {
						t.Fatalf("W=%d: read after write of word %d = %#x, want %#x", w, i, got, val(w, i, 1))
					}
				}
				if got := th.TxRead(vars[w]); got != init[w] {
					t.Fatalf("W=%d: unwritten word reads %#x, want %#x", w, got, init[w])
				}
				if !th.TxCommit() {
					t.Fatalf("W=%d: commit failed", w)
				}
				for i := 0; i < w; i++ {
					init[i] = val(w, i, 1)
					if got := th.SingleRead(vars[i]); got != init[i] {
						t.Fatalf("W=%d: committed word %d = %#x, want %#x", w, i, got, init[i])
					}
				}
			}
		})
	}
}

// BenchmarkTxWrite measures a write to a fresh word of a write set of W
// words; a steady-state transaction allocates nothing. On the val layout
// the transaction aborts, so the figure is TxWrite alone, which scans
// the write set and so grows with W.
// The orec rows commit, which scans the write set once per entry for an
// orec an earlier entry already locked, so their cost per write grows
// with W.
func BenchmarkTxWrite(b *testing.B) {
	for _, c := range []struct {
		name   string
		cfg    Config
		commit bool
	}{{"val", Config{Layout: LayoutVal}, false}, {"orec-commit", Config{Layout: LayoutOrec}, true}} {
		for _, w := range []int{4, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/W=%d", c.name, w), func(b *testing.B) {
				e := New(c.cfg)
				th := e.Register()
				vars := benchVars(e, w)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.TxStart()
					for _, v := range vars {
						th.TxWrite(v, word.FromUint(uint64(i)))
					}
					if c.commit {
						if !th.TxCommit() {
							b.Fatal("uncontended commit failed")
						}
					} else {
						th.TxAbort()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/write")
			})
		}
	}
}
