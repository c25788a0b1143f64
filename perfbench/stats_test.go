package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(10), 50, 5},
		{seq(10), 90, 9},
		{seq(100), 90, 90},
		{seq(101), 90, 91},
		{seq(1), 90, 1},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// TestTailSampleCount pins the sample-count rule: a percentile is
// reported only with at least ten samples beyond it.
func TestTailSampleCount(t *testing.T) {
	cases := []struct {
		n      int
		beyond int
		ok     bool
	}{
		{100, 10, true},
		{99, 9, false},
		{1800, 180, true},
		{0, 0, false},
	}
	for _, c := range cases {
		if got := c.n - rank(c.n, 90); c.n > 0 && got != c.beyond {
			t.Errorf("%d samples: %d beyond p90, want %d", c.n, got, c.beyond)
		}
		if err := tailCheck(c.n, 90); (err == nil) != c.ok {
			t.Errorf("tailCheck(%d, 90) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}

func TestSummaryJSON(t *testing.T) {
	var r result
	r.set("wall_s", 1.5, "s")
	r.check("ok", nil)
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`
	if got := summaryJSON(&r); got != want {
		t.Errorf("summaryJSON = %s, want %s", got, want)
	}
	r.set("bad", 0, "s")
	r.metrics["bad"] = metric{Value: math.NaN(), Unit: "s"}
	if got := summaryJSON(&r); r.failed != 1 || got == want {
		t.Errorf("a non-finite metric must fail the run, got %s", got)
	}
}
