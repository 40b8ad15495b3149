package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartile(xs, 1), quartile(xs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartile([]float64{4, 1, 2}, 1), quartile([]float64{4, 1, 2}, 3); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 values %v, %v; want 1, 4", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread %v, want 1", s)
	}
}

func TestJudgeAgainstBound(t *testing.T) {
	lower := specMetric{Name: "request_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "rows_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, "unchanged"},
		{"worse past bound", lower, []float64{100, 101, 99}, []float64{115, 116, 114}, "regressed"},
		{"better", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "unchanged"},
		{"throughput drop", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{"throughput gain", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "unchanged"},
		{"noisy parent", lower, []float64{60, 100, 140}, []float64{100, 101, 99}, "unresolved"},
		{"noisy but every run better", lower, []float64{60, 100, 140}, []float64{50, 51, 49}, "unchanged"},
	} {
		if got := judge(c.m, c.a, c.b).status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
