package arena

import (
	"sync"
	"testing"
	"testing/quick"
)

type node struct {
	key  uint64
	next uint64
}

func TestNilHandle(t *testing.T) {
	var h Handle
	if !h.IsNil() {
		t.Fatal("zero handle must be nil")
	}
	a := New[node]()
	if a.Validate(0) {
		t.Fatal("nil handle must not validate")
	}
}

func TestAllocGet(t *testing.T) {
	a := New[node]()
	h1, n1 := a.Alloc()
	h2, n2 := a.Alloc()
	if h1.IsNil() || h2.IsNil() {
		t.Fatal("Alloc returned nil handle")
	}
	if h1 == h2 {
		t.Fatal("distinct allocations share a handle")
	}
	n1.key, n2.key = 10, 20
	if a.Get(h1).key != 10 || a.Get(h2).key != 20 {
		t.Fatal("Get resolved to wrong slot")
	}
	if !a.Validate(h1) || !a.Validate(h2) {
		t.Fatal("live handles must validate")
	}
	if a.Live() != 2 {
		t.Fatalf("Live = %d, want 2", a.Live())
	}
}

func TestFreeRecyclesWithNewGeneration(t *testing.T) {
	a := New[node]()
	h1, n1 := a.Alloc()
	n1.key = 99
	a.Free(h1)
	if a.Validate(h1) {
		t.Fatal("freed handle must not validate")
	}
	h2, n2 := a.Alloc()
	if h2.slot() != h1.slot() {
		t.Fatalf("expected slot reuse, got slot %d then %d", h1.slot(), h2.slot())
	}
	if h2 == h1 {
		t.Fatal("recycled slot must mint a different handle (non-re-use)")
	}
	if h2.Gen() != h1.Gen()+1 {
		t.Fatalf("generation %d -> %d, want +1", h1.Gen(), h2.Gen())
	}
	if n2.key != 0 {
		t.Fatal("recycled slot must be zeroed")
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New[node]()
	h, _ := a.Alloc()
	a.Free(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free(h)
}

func TestFreeNilPanics(t *testing.T) {
	a := New[node]()
	defer func() {
		if recover() == nil {
			t.Fatal("free of nil must panic")
		}
	}()
	a.Free(0)
}

func TestHandleEncoding(t *testing.T) {
	f := func(slot uint32, gen uint16) bool {
		h := makeHandle(uint64(slot), uint64(gen))
		return h.slot() == uint64(slot) && h.Gen() == uint64(gen) && h <= MaxHandle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossChunkAllocation(t *testing.T) {
	a := New[node]()
	handles := make(map[Handle]uint64)
	const n = chunkSize + 100 // force a second chunk
	for i := uint64(0); i < n; i++ {
		h, p := a.Alloc()
		if _, dup := handles[h]; dup {
			t.Fatalf("duplicate handle %#x", uint64(h))
		}
		p.key = i
		handles[h] = i
	}
	for h, want := range handles {
		if got := a.Get(h).key; got != want {
			t.Fatalf("handle %#x resolved to key %d, want %d", uint64(h), got, want)
		}
	}
}

// TestChunkCount pins the nil slot's cost at nothing: 2¹⁶ allocations
// fill exactly one chunk, and the next one installs the second.
func TestChunkCount(t *testing.T) {
	a := New[node]()
	installed := func() int {
		n := 0
		for i := range a.chunks {
			if a.chunks[i].Load() != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < chunkSize; i++ {
		a.Alloc()
	}
	if got := installed(); got != 1 {
		t.Fatalf("%d allocations installed %d chunks, want 1", chunkSize, got)
	}
	a.Alloc()
	if got := installed(); got != 2 {
		t.Fatalf("%d allocations installed %d chunks, want 2", chunkSize+1, got)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := New[node]()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			local := make([]Handle, 0, 16)
			for i := 0; i < per; i++ {
				h, p := a.Alloc()
				p.key = id
				local = append(local, h)
				if len(local) == 16 {
					for _, lh := range local {
						if a.Get(lh).key != id {
							t.Errorf("slot stomped: got %d want %d", a.Get(lh).key, id)
							return
						}
						a.Free(lh)
					}
					local = local[:0]
				}
			}
			for _, lh := range local {
				a.Free(lh)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if a.Live() != 0 {
		t.Fatalf("Live = %d after balanced alloc/free", a.Live())
	}
}

func TestAllocFreeModelProperty(t *testing.T) {
	// Random interleavings of alloc/free tracked against a model map.
	f := func(ops []bool) bool {
		a := New[node]()
		live := make(map[Handle]uint64)
		order := make([]Handle, 0)
		var seq uint64
		for _, isAlloc := range ops {
			if isAlloc || len(order) == 0 {
				seq++
				h, p := a.Alloc()
				if _, dup := live[h]; dup {
					return false // live handle reissued
				}
				p.key = seq
				live[h] = seq
				order = append(order, h)
			} else {
				h := order[len(order)-1]
				order = order[:len(order)-1]
				if a.Get(h).key != live[h] {
					return false
				}
				delete(live, h)
				a.Free(h)
				if a.Validate(h) {
					return false
				}
			}
		}
		for h, want := range live {
			if a.Get(h).key != want || !a.Validate(h) {
				return false
			}
		}
		return a.Live() == uint64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
