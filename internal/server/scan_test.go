package server

import (
	"fmt"
	"testing"

	cli "spectm/internal/client"
	"spectm/internal/proto"
)

// TestScanCommands drives SCAN/ISCAN/IDXCREATE over the wire with the
// typed client, plus raw-protocol error cases.
func TestScanCommands(t *testing.T) {
	s := startServer(t)
	cl, err := cli.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	for i := 0; i < 20; i++ {
		if err := cl.Set(fmt.Sprintf("k%02d", i), uint64(i%5)); err != nil {
			t.Fatalf("SET: %v", err)
		}
	}

	ents, err := cl.Scan("", "", 0)
	if err != nil {
		t.Fatalf("SCAN: %v", err)
	}
	if len(ents) != 20 {
		t.Fatalf("SCAN all: %d entries, want 20", len(ents))
	}
	for i, e := range ents {
		if want := fmt.Sprintf("k%02d", i); e.Key != want || e.Val != uint64(i%5) {
			t.Fatalf("SCAN[%d] = %+v, want %s=%d", i, e, want, i%5)
		}
	}
	ents, err = cl.Scan("k05", "k10", 3)
	if err != nil || len(ents) != 3 || ents[0].Key != "k05" {
		t.Fatalf("SCAN range+limit: %v (err %v)", ents, err)
	}

	if err := cl.IdxCreate("byval", "value"); err != nil {
		t.Fatalf("IDXCREATE: %v", err)
	}
	if err := cl.IdxCreate("byval", "value"); err != nil { // idempotent
		t.Fatalf("IDXCREATE again: %v", err)
	}
	if err := cl.IdxCreate("byval", "key"); err == nil {
		t.Fatal("IDXCREATE conflicting kind succeeded")
	}
	score := func(v uint64) string { return fmt.Sprintf("%016x", v) }
	ents, err = cl.IScan("byval", score(3), score(4), 0)
	if err != nil {
		t.Fatalf("ISCAN: %v", err)
	}
	if len(ents) != 4 {
		t.Fatalf("ISCAN val=3: %d entries, want 4", len(ents))
	}
	for _, e := range ents {
		if e.Val != 3 {
			t.Fatalf("ISCAN val=3 returned %+v", e)
		}
	}
	if _, err := cl.IScan("missing", "", "", 0); err == nil {
		t.Fatal("ISCAN unknown index succeeded")
	}

	// Raw-protocol arity and limit errors keep the connection usable.
	c := dial(t, s)
	if r := c.do(t, "SCAN", "a"); r.Kind != proto.KindError {
		t.Fatalf("SCAN arity → %+v", r)
	}
	if r := c.do(t, "SCAN", "", "", "-1"); r.Kind != proto.KindError {
		t.Fatalf("SCAN bad limit → %+v", r)
	}
	if r := c.do(t, "ISCAN", "byval", ""); r.Kind != proto.KindError {
		t.Fatalf("ISCAN arity → %+v", r)
	}
	if r := c.do(t, "IDXCREATE", "x"); r.Kind != proto.KindError {
		t.Fatalf("IDXCREATE arity → %+v", r)
	}
	if r := c.do(t, "PING"); string(r.Str) != "PONG" {
		t.Fatalf("connection dead after errors: %+v", r)
	}

	// STATS carries the new counters.
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	stats := parseStats(t, st)
	if stats["scans"] != 2 || stats["iscans"] != 1 || stats["idx_creates"] != 1 {
		t.Fatalf("STATS scans=%d iscans=%d idx_creates=%d, want 2,1,1",
			stats["scans"], stats["iscans"], stats["idx_creates"])
	}
	if stats["scan_keys"] != 23 {
		t.Fatalf("STATS scan_keys=%d, want 23", stats["scan_keys"])
	}
	// The first SCAN found every key by hash lookup and left a hint in
	// its index entry; the second read its 3 keys through those hints.
	if stats["scan_fallbacks"] != 20 {
		t.Fatalf("STATS scan_fallbacks=%d, want 20", stats["scan_fallbacks"])
	}
	// Every insert and scan above descended the index at least once, and
	// no descent of a non-empty index visits nothing.
	if stats["index_searches"] == 0 || stats["index_steps"] < stats["index_searches"] {
		t.Fatalf("STATS index_searches=%d index_steps=%d", stats["index_searches"], stats["index_steps"])
	}
}
