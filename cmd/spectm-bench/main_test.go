package main

import (
	"slices"
	"testing"
)

func TestParseThreads(t *testing.T) {
	for in, want := range map[string][]int{
		"4":           {4},
		"8,1,2":       {1, 2, 8},
		"2, 4,2,1, 4": {1, 2, 4},
	} {
		got, err := parseThreads(in)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("parseThreads(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "0", "1,0", "-2", "1,x", "1,,2", "2.5"} {
		if got, err := parseThreads(in); err == nil {
			t.Errorf("parseThreads(%q) = %v, want an error", in, got)
		}
	}
}
