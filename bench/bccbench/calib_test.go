package main

import (
	"slices"
	"testing"
	"time"
)

func TestScaleBetween(t *testing.T) {
	if f := scaleBetween(referenceNominal, referenceNominal); f != 1 {
		t.Errorf("scale at the nominal speed = %v, want 1", f)
	}
	// A host at half speed on average over the slice halves its times.
	if f := scaleBetween(referenceNominal, 3*referenceNominal); f != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", f)
	}
}

// Each slice's shots and wall time take the scale measured around that
// slice, and only that one.
func TestScaleSliceScalesOnlyTheSliceJustRun(t *testing.T) {
	sr := &streamRun{}
	sr.shots = []shot{{latency: 100 * time.Millisecond}}
	sr.sliceWall = time.Second
	sr.scaleSlice(0.5)
	sr.shots = append(sr.shots, shot{latency: 100 * time.Millisecond}, shot{latency: 300 * time.Millisecond})
	sr.sliceWall = 2 * time.Second
	sr.scaleSlice(2)

	if got, want := sr.latenciesMs(true), []float64{50, 200, 600}; !slices.Equal(got, want) {
		t.Errorf("scaled latencies %v, want %v", got, want)
	}
	if got, want := sr.latenciesMs(false), []float64{100, 100, 300}; !slices.Equal(got, want) {
		t.Errorf("unscaled latencies %v, want %v", got, want)
	}
	if want := 4500 * time.Millisecond; sr.scaledWall != want {
		t.Errorf("scaled wall %v, want %v", sr.scaledWall, want)
	}
}
