package server

import (
	"fmt"
	"testing"

	cli "spectm/internal/client"
	"spectm/internal/proto"
)

// TestScanCommands drives SCAN over the wire with the typed client, plus
// raw-protocol error cases, and pins that the retired secondary-index
// commands are unknown.
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

	// Raw-protocol arity and limit errors keep the connection usable.
	c := dial(t, s)
	if r := c.do(t, "SCAN", "a"); r.Kind != proto.KindError {
		t.Fatalf("SCAN arity → %+v", r)
	}
	if r := c.do(t, "SCAN", "", "", "-1"); r.Kind != proto.KindError {
		t.Fatalf("SCAN bad limit → %+v", r)
	}
	for _, args := range [][]string{{"ISCAN", "byval", "", "", "0"}, {"IDXCREATE", "byval", "value"}} {
		want := fmt.Sprintf("ERR unknown command '%s'", args[0])
		if r := c.do(t, args...); r.Kind != proto.KindError || string(r.Str) != want {
			t.Fatalf("%s → %+v, want error %q", args[0], r, want)
		}
	}
	if r := c.do(t, "PING"); string(r.Str) != "PONG" {
		t.Fatalf("connection dead after errors: %+v", r)
	}

	// STATS carries the scan counters.
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	stats := parseStats(t, st)
	if stats["scans"] != 2 {
		t.Fatalf("STATS scans=%d, want 2", stats["scans"])
	}
	if stats["scan_keys"] != 23 {
		t.Fatalf("STATS scan_keys=%d, want 23", stats["scan_keys"])
	}
	// Every insert wrote its key's hint, so both SCANs read every
	// candidate through it.
	if stats["scan_fallbacks"] != 0 {
		t.Fatalf("STATS scan_fallbacks=%d, want 0", stats["scan_fallbacks"])
	}
	// Every insert and scan above descended the index at least once, and
	// no descent of a non-empty index visits nothing.
	if stats["index_searches"] == 0 || stats["index_steps"] < stats["index_searches"] {
		t.Fatalf("STATS index_searches=%d index_steps=%d", stats["index_searches"], stats["index_steps"])
	}
}
