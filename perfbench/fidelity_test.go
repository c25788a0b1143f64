package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRowHitErr(t *testing.T) {
	// |30.86-37| + |32.22-33| + |27.93-27.5| = 6.14 + 0.78 + 0.43.
	if got := rowHitErr([3]float64{30.86, 32.22, 27.93}); !near(got, 2.45) {
		t.Errorf("rowHitErr = %v, want 2.45", got)
	}
	if got := rowHitErr(paperRowHitPct); got != 0 {
		t.Errorf("rowHitErr(paper values) = %v, want 0", got)
	}
}

func TestSingleAccessErr(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{76, 80, 95, 90, 77}, (1 + 0 + 5 + 0 + 0) / 5.0},
		{[]float64{77, 83.5, 90}, 0},
		{[]float64{70}, 7},
		{nil, 0},
	}
	for _, c := range cases {
		if got := singleAccessErr(c.in); !near(got, c.want) {
			t.Errorf("singleAccessErr(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestATLASLatErr(t *testing.T) {
	for _, c := range []struct{ ratio, want float64 }{{1.16, 1.78}, {3.0, 0.06}, {2.94, 0}} {
		if got := atlasLatErr(c.ratio); !near(got, c.want) {
			t.Errorf("atlasLatErr(%v) = %v, want %v", c.ratio, got, c.want)
		}
	}
}
