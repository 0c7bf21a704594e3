package spectm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestFacadeQuickstart exercises the whole public surface the way the
// quickstart example does: typed short transactions, a combinator, a
// full transaction and the multi-word primitives against one engine.
func TestFacadeQuickstart(t *testing.T) {
	e := New(WithLayout(LayoutVal))
	thr := e.Register()

	a := e.NewVar(FromUint(100))
	b := e.NewVar(FromUint(0))

	// Typed short transaction: move 30 from a to b atomically.
	d, x, y := thr.ShortRW2(a, b)
	if !d.Valid() {
		t.Fatal("uncontended short txn invalid")
	}
	d.Commit(FromUint(x.Uint()-30), FromUint(y.Uint()+30))

	// Full transaction on the same words.
	ok := thr.Atomic(func() bool {
		av := thr.TxRead(a)
		bv := thr.TxRead(b)
		if !thr.TxOK() {
			return true
		}
		thr.TxWrite(a, FromUint(av.Uint()+5))
		thr.TxWrite(b, FromUint(bv.Uint()-5))
		return true
	})
	if !ok {
		t.Fatal("full txn failed")
	}

	if got := thr.SingleRead(a); got != FromUint(75) {
		t.Fatalf("a = %d, want 75", got.Uint())
	}
	if got := thr.SingleRead(b); got != FromUint(25) {
		t.Fatalf("b = %d, want 25", got.Uint())
	}

	// Multi-word primitives.
	if !DCSS(thr, a, b, FromUint(75), FromUint(25), FromUint(80)) {
		t.Fatal("DCSS failed")
	}
	if !CAS2(thr, a, b, FromUint(80), FromUint(25), FromUint(1), FromUint(2)) {
		t.Fatal("CAS2 failed")
	}

	// Snapshot combinator.
	if xv, yv := DoRO2(thr, a, b); xv != FromUint(1) || yv != FromUint(2) {
		t.Fatalf("DoRO2 = (%d, %d), want (1, 2)", xv.Uint(), yv.Uint())
	}
}

// TestOptionsConstruction covers the options constructor: defaults,
// every knob, and validation failures.
func TestOptionsConstruction(t *testing.T) {
	// Zero options build the default engine.
	if got := New().Layout(); got != LayoutOrec {
		t.Fatalf("default layout = %v, want orec", got)
	}

	e := New(
		WithLayout(LayoutOrec),
		WithCC(CCLocal),
		WithOrecBits(4),
		WithMaxThreads(3),
		WithDebugChecks(),
	)
	cfg := e.Config()
	if cfg.Layout != LayoutOrec || cfg.CC != CCLocal || cfg.OrecBits != 4 ||
		cfg.MaxThreads != 3 || !cfg.Debug {
		t.Fatalf("options not applied: %+v", cfg)
	}

	// The effective protocol is visible through Config.
	if ec := New(WithLayout(LayoutVal), WithCC(CCNoCounter)); ec.Config().CC != CCNoCounter {
		t.Fatalf("WithCC(CCNoCounter) not applied: %+v", ec.Config())
	}
	if ec := New(WithLayout(LayoutTVar), WithCC(CCLazy), WithSnapshots()); ec.Config().CC != CCLazy || !ec.Config().Snapshots {
		t.Fatalf("WithCC/WithSnapshots not applied: %+v", ec.Config())
	}

	for name, opts := range map[string][]Option{
		"negative-threads":  {WithMaxThreads(-1)},
		"orecbits-range":    {WithOrecBits(31)},
		"orecbits-on-val":   {WithLayout(LayoutVal), WithOrecBits(4)},
		"nocounter-on-tvar": {WithLayout(LayoutTVar), WithCC(CCNoCounter)},
		"local-on-val":      {WithLayout(LayoutVal), WithCC(CCLocal)},
		"snapshots-on-val":  {WithLayout(LayoutVal), WithSnapshots()},
		"snapshots-local":   {WithCC(CCLocal), WithSnapshots()},
	} {
		if _, err := NewEngine(opts...); err == nil {
			t.Errorf("%s: NewEngine accepted an invalid configuration", name)
		}
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New did not panic on an invalid configuration")
		}
		if !strings.Contains(r.(string), "MaxThreads") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	New(WithMaxThreads(-5))
}

// TestConfigIntrospection: Engine.Config reports the effective
// configuration as the exported Config alias.
func TestConfigIntrospection(t *testing.T) {
	e := New(WithLayout(LayoutTVar), WithMaxThreads(2))
	var cfg Config = e.Config()
	if cfg.Layout != LayoutTVar || cfg.MaxThreads != 2 {
		t.Fatalf("Config() = %+v, want tvar/2-thread", cfg)
	}
	thr := e.Register()
	v := e.NewVar(FromUint(7))
	if got := DoRO1(thr, v); got != FromUint(7) {
		t.Fatalf("engine read %d, want 7", got.Uint())
	}
}

func TestFacadeSet(t *testing.T) {
	for _, v := range SetVariants() {
		if v == "orec-full-g-fine" {
			continue
		}
		s, err := NewSet(SetConfig{Structure: "hash", Variant: v, Buckets: 64})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		th := s.NewThread()
		if !th.Add(7) || !th.Contains(7) || !th.Remove(7) {
			t.Fatalf("%s: set semantics broken", v)
		}
	}
}

func TestFacadeDeque(t *testing.T) {
	e := New(WithLayout(LayoutTVar))
	d := NewDeque(e, 16)
	var wg sync.WaitGroup
	const items = 500
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := d.NewShort(e.Register())
		for i := uint64(1); i <= items; i++ {
			for !q.PushRight(FromUint(i)) {
			}
		}
	}()
	got := make([]uint64, 0, items)
	q := d.NewFull(e.Register())
	for len(got) < items {
		if v, ok := q.PopLeft(); ok {
			got = append(got, v.Uint())
		}
	}
	wg.Wait()
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("FIFO order broken at %d: %d", i, v)
		}
	}
}

func TestFacadeKCSS(t *testing.T) {
	e := New(WithLayout(LayoutOrec))
	thr := e.Register()
	a, b, c := e.NewVar(FromUint(1)), e.NewVar(FromUint(2)), e.NewVar(FromUint(3))
	if !KCSS(thr, []Var{a, b, c}, []Value{FromUint(1), FromUint(2), FromUint(3)}, FromUint(9)) {
		t.Fatal("KCSS failed")
	}
	if thr.SingleRead(a) != FromUint(9) || thr.SingleRead(b) != FromUint(2) {
		t.Fatal("KCSS wrote wrong state")
	}
	if !CAS3(thr, a, b, c, FromUint(9), FromUint(2), FromUint(3), FromUint(1), FromUint(1), FromUint(1)) {
		t.Fatal("CAS3 failed")
	}
	if !CAS4(thr, [4]Var{a, b, c, e.NewVar(FromUint(4))},
		[4]Value{FromUint(1), FromUint(1), FromUint(1), FromUint(4)},
		[4]Value{FromUint(0), FromUint(0), FromUint(0), FromUint(0)}) {
		t.Fatal("CAS4 failed")
	}
}

// TestFacadeMap exercises the sharded transactional map through the
// public API: options, hot-path operations, atomic batch reads, CAS and
// the cross-shard swap, plus concurrent traffic through resizes.
func TestFacadeMap(t *testing.T) {
	e := New(WithLayout(LayoutVal))
	m := NewMap(e, WithShards(4), WithInitialBuckets(2))
	th := m.NewThread()

	if !th.Put("user:1", FromUint(100)) {
		t.Fatal("Put did not insert")
	}
	if th.Put("user:1", FromUint(101)) {
		t.Fatal("Put of existing key claimed insert")
	}
	if v, ok := th.Get("user:1"); !ok || v.Uint() != 101 {
		t.Fatalf("Get = %v,%v", v.Uint(), ok)
	}
	if !th.CompareAndSwap("user:1", FromUint(101), FromUint(102)) {
		t.Fatal("CAS failed")
	}
	th.Put("user:2", FromUint(200))
	if !th.Swap2("user:1", "user:2") {
		t.Fatal("Swap2 failed")
	}
	vals := make([]Value, 2)
	found := make([]bool, 2)
	th.GetBatch([]string{"user:1", "user:2"}, vals, found)
	if !found[0] || !found[1] || vals[0].Uint() != 200 || vals[1].Uint() != 102 {
		t.Fatalf("GetBatch after swap = %v/%v %v/%v", vals[0].Uint(), found[0], vals[1].Uint(), found[1])
	}
	if !th.Delete("user:2") || th.Delete("user:2") {
		t.Fatal("Delete semantics broken")
	}

	// Concurrent writers force resizes through the tiny initial table.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wt := m.NewThread()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("w%d-%04d", id, i)
				wt.Put(key, FromUint(uint64(i)))
				if v, ok := wt.Get(key); !ok || v.Uint() != uint64(i) {
					t.Errorf("lost %s", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if want := 1 + 4*500; m.Len() != want {
		t.Fatalf("Len = %d want %d", m.Len(), want)
	}
}

func TestFacadePersistentMap(t *testing.T) {
	dir := t.TempDir()
	e := New(WithLayout(LayoutVal))
	m, err := OpenMap(e, dir, WithPersistence(dir, FsyncEveryN(8)), WithShards(2))
	if err != nil {
		t.Fatalf("OpenMap: %v", err)
	}
	th := m.NewThread()
	for i := 0; i < 100; i++ {
		th.Put(fmt.Sprintf("k%03d", i), FromUint(uint64(i)))
	}
	th.Delete("k000")
	if err := m.Save(); err != nil { // snapshot + compaction
		t.Fatalf("Save: %v", err)
	}
	th.Put("tail", FromUint(7))
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := OpenMap(New(WithLayout(LayoutVal)), dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	th2 := m2.NewThread()
	if _, ok := th2.Get("k000"); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, ok := th2.Get("k042"); !ok || v.Uint() != 42 {
		t.Fatalf("k042 = %v,%v", v.Uint(), ok)
	}
	if v, ok := th2.Get("tail"); !ok || v.Uint() != 7 {
		t.Fatalf("post-snapshot tail = %v,%v", v.Uint(), ok)
	}
	if m2.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m2.Len())
	}

	// The parse helper round-trips every policy syntax.
	for _, s := range []string{"always", "every=64", "interval=250ms"} {
		if _, err := ParseFsyncPolicy(s); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", s, err)
		}
	}
}
