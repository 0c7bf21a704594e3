package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// quickOpts keeps the runners fast enough for tests.
func quickOpts(t *testing.T, csv bool) Options {
	o := Options{
		Threads:  []int{1, 2},
		Duration: 25 * time.Millisecond,
		KeyRange: 512,
	}
	if csv {
		o.CSVDir = t.TempDir()
	}
	return o
}

func TestFig1Runs(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(t, true)
	o.Out = &buf
	if err := Run(o, "1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The header names the key range that ran, not the paper's 64k.
	for _, want := range []string{"fig1: hash table, 512 keys,", "lock-free", "val-short", "orec-full-g", "sequential baseline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(o.CSVDir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// header + sequential + 2 thread counts × 5 variants
	if want := 2 + 2*5; len(lines) != want {
		t.Fatalf("fig1.csv has %d lines, want %d", len(lines), want)
	}
	if lines[0] != "threads,variant,ops_per_sec,normalized,aborts" {
		t.Fatalf("bad csv header %q", lines[0])
	}
}

func TestFig5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 sweeps 108 cells")
	}
	var buf bytes.Buffer
	o := quickOpts(t, true)
	o.Duration = 80 * time.Millisecond // floors at 20ms per cell
	o.Out = &buf
	if err := Run(o, "5"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"32768 cache-line items", "rw-4", "val-full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(o.CSVDir, "fig5.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRemainingFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-figure sweep")
	}
	for _, fig := range []string{"6", "7", "8", "9", "10"} {
		var buf bytes.Buffer
		o := quickOpts(t, false)
		o.Out = &buf
		if err := Run(o, fig); err != nil {
			t.Fatalf("fig%s: %v", fig, err)
		}
		if !strings.Contains(buf.String(), "fig"+fig) {
			t.Fatalf("fig%s output missing its own tag", fig)
		}
	}
}
