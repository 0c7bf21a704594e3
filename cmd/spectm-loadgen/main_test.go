package main

import "testing"

func TestParseMix(t *testing.T) {
	for in, want := range map[string][7]int{
		"70,20,3,3,2,2":        {70, 20, 3, 3, 2, 2, 0},
		"70,20,3,3,2,2,0":      {70, 20, 3, 3, 2, 2, 0},
		"30,30,10,0,0,0,30":    {30, 30, 10, 0, 0, 0, 30},
		" 100, 0,0,0,0,0 ":     {100},
		"0,0,0,0,0,0,100":      {6: 100},
		"10,10,10,10,10,10,40": {10, 10, 10, 10, 10, 10, 40},
	} {
		if got, err := parseMix(in); err != nil || got != want {
			t.Errorf("parseMix(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"",
		"70,20,3,3,2",          // 5 parts
		"30,30,10,0,0,0,20,10", // 8 parts
		"70,20,3,3,2,2,0,0,0",  // 9 parts
		"70,20,3,3,2,1",        // sums to 99
		"110,-10,0,0,0,0",      // negative share
		"70,20,3,3,2,x",        // garbage
		"70,20,3,3,2,2.0",      // not an integer
	} {
		if got, err := parseMix(in); err == nil {
			t.Errorf("parseMix(%q) = %v, want an error", in, got)
		}
	}
}

// TestCheckCounts: every count flag must be at least 1; 0 would silently
// mean the harness default and a negative one cannot size anything.
func TestCheckCounts(t *testing.T) {
	if err := checkCounts(1, 1, 1, 1); err != nil {
		t.Fatalf("all-ones rejected: %v", err)
	}
	for i, name := range []string{"conns", "pipeline", "keys", "scanlimit"} {
		for _, bad := range []int{0, -1} {
			n := [4]int{4, 16, 16384, 32}
			n[i] = bad
			if err := checkCounts(n[0], n[1], n[2], n[3]); err == nil {
				t.Errorf("-%s %d accepted", name, bad)
			}
		}
	}
}
