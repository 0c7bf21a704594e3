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
	if err := Fig1(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig1", "lock-free", "val-short", "orec-full-g", "sequential baseline"} {
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
	if err := Fig5(o); err != nil {
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
	for name, fn := range map[string]func(Options) error{
		"fig6": Fig6, "fig7": Fig7, "fig8": Fig8, "fig9": Fig9, "fig10": Fig10,
	} {
		var buf bytes.Buffer
		o := quickOpts(t, false)
		o.Out = &buf
		if err := fn(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("%s output missing its own tag", name)
		}
	}
}
