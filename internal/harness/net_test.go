package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spectm/internal/proto"
	"spectm/internal/rng"
	"spectm/internal/server"
)

// startServer runs an in-process spectm-server on a loopback port for
// the length of the test.
func startServer(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.WithMaxConns(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Shutdown()
		<-done
	})
	return s.Addr().String()
}

func TestZipfSkew(t *testing.T) {
	r := rng.New(42)
	pick, err := keyPicker("zipf", r, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	head := 0
	for i := 0; i < draws; i++ {
		if pick() < 8 {
			head++
		}
	}
	// Under s=1.1 Zipf the top 8 of 1024 keys draw a large share; under
	// uniform they would draw ~0.8%.
	if frac := float64(head) / draws; frac < 0.10 {
		t.Fatalf("zipf head fraction %.3f, want ≥ 0.10", frac)
	}
}

// TestRunNetRejectsBadConfig: a bad mix or distribution and every
// negative count are errors before any traffic, not a panic sizing a
// slice (0 still means the default).
func TestRunNetRejectsBadConfig(t *testing.T) {
	addr := startServer(t)
	const d = 10 * time.Millisecond
	for name, w := range map[string]NetWorkload{
		"mix":      {Addr: addr, GetPct: 50, SetPct: 10},
		"dist":     {Addr: addr, Dist: "pareto"},
		"keys":     {Addr: addr, Keys: -5},
		"conns":    {Addr: addr, Keys: 64, Conns: -1},
		"pipeline": {Addr: addr, Keys: 64, Pipeline: -1},
		"scanlim":  {Addr: addr, Keys: 64, ScanLim: -1},
	} {
		w.Duration = d
		if _, err := RunNet(w); err == nil {
			t.Errorf("%s: %+v accepted", name, w)
		} else if name != "mix" && name != "dist" && !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: rejected for the wrong reason: %v", name, err)
		}
	}
	if res, err := RunNet(NetWorkload{Addr: addr, Keys: 64, Duration: d}); err != nil || res.Errors != 0 {
		t.Fatalf("defaults: err %v, %d error replies", err, res.Errors)
	}
}

// TestRunNetScanMix drives SCAN beside the point commands
// (buckets grow and shrink under the set/del churn): every scan reply
// must have the flat key/value shape.
func TestRunNetScanMix(t *testing.T) {
	res, err := RunNet(NetWorkload{
		Addr: startServer(t), Conns: 2, Pipeline: 8, Keys: 2048,
		GetPct: 30, SetPct: 30, DelPct: 10, ScanPct: 30, ScanLim: 64,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Scans == 0 {
		t.Fatalf("errors %d, scans %d", res.Errors, res.Scans)
	}
}

// TestValidReplyRejectsBadShapes: a reply of the wrong shape for the
// command that earned it is a run error, and a well-formed one is not.
func TestValidReplyRejectsBadShapes(t *testing.T) {
	for _, c := range []struct {
		name string
		op   netOp
		wire string
		want bool
	}{
		{"get int", opGet, ":7\r\n", true},
		{"get null", opGet, "$-1\r\n", true},
		{"get simple", opGet, "+OK\r\n", false},
		{"del 2", opDel, ":2\r\n", false},
		{"mget2", opMGet2, "*2\r\n:1\r\n$-1\r\n", true},
		{"mget2 arity 3", opMGet2, "*3\r\n:1\r\n:2\r\n:3\r\n", false},
		{"mget3 arity 2", opMGet3, "*2\r\n:1\r\n:2\r\n", false},
		{"mget2 bulk value", opMGet2, "*2\r\n:1\r\n$1\r\nx\r\n", false},
		{"scan pair", opScan, "*2\r\n$1\r\na\r\n:7\r\n", true},
		{"scan odd", opScan, "*3\r\n$1\r\na\r\n:7\r\n$1\r\nb\r\n", false},
		{"scan bulk value", opScan, "*2\r\n$1\r\na\r\n$1\r\nb\r\n", false},
		{"scan int key", opScan, "*2\r\n:1\r\n:7\r\n", false},
		{"scan null key", opScan, "*2\r\n$-1\r\n:7\r\n", false},
	} {
		rd := proto.NewReader(bytes.NewBufferString(c.wire))
		var rep proto.Reply
		if err := rd.ReadReply(&rep); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := validReply(c.op, &rep, rd); got != c.want {
			t.Errorf("%s: validReply = %v, want %v", c.name, got, c.want)
		}
	}
}
