package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	return writeReport(t, dir, name, Report{GoVersion: "gotest", GOMAXPROCS: 1, Benchmarks: benches})
}

func writeReport(t *testing.T, dir, name string, r Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareTolerance pins the regression gate: within-tolerance drift
// and improvements pass, a beyond-tolerance ns/op or allocs/op
// regression fails, and benchmarks present in only one baseline never
// fail the comparison.
func TestCompareTolerance(t *testing.T) {
	dir := t.TempDir()
	old := writeBaseline(t, dir, "old.json", []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "Gone", NsPerOp: 5, AllocsPerOp: 1},
	})

	within := writeBaseline(t, dir, "within.json", []Benchmark{
		{Name: "A", NsPerOp: 1200, AllocsPerOp: 110}, // +20% / +10%
		{Name: "B", NsPerOp: 500, AllocsPerOp: 10},   // improvement
		{Name: "New", NsPerOp: 99999, AllocsPerOp: 9},
	})
	if err := runCompare(old, within, 25, false, false); err != nil {
		t.Errorf("within-tolerance comparison failed: %v", err)
	}

	nsRegressed := writeBaseline(t, dir, "ns.json", []Benchmark{
		{Name: "A", NsPerOp: 1300, AllocsPerOp: 100}, // +30% ns/op
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 100},
	})
	if err := runCompare(old, nsRegressed, 25, false, false); err == nil {
		t.Error("a +30%% ns/op regression passed at 25%% tolerance")
	}

	allocRegressed := writeBaseline(t, dir, "alloc.json", []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 140}, // +40% allocs/op
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 100},
	})
	if err := runCompare(old, allocRegressed, 25, false, false); err == nil {
		t.Error("a +40%% allocs/op regression passed at 25%% tolerance")
	}
	// The same regression passes at a looser tolerance.
	if err := runCompare(old, allocRegressed, 50, false, false); err != nil {
		t.Errorf("a +40%% regression failed at 50%% tolerance: %v", err)
	}
}

// TestCompareRejectsEmptyBaselines pins the input validation: an empty
// or unreadable baseline is an error, not a vacuous pass.
func TestCompareRejectsEmptyBaselines(t *testing.T) {
	dir := t.TempDir()
	ok := writeBaseline(t, dir, "ok.json", []Benchmark{{Name: "A", NsPerOp: 1}})
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(ok, empty, 25, false, false); err == nil {
		t.Error("empty new baseline passed")
	}
	if err := runCompare(empty, ok, 25, false, false); err == nil {
		t.Error("empty old baseline passed")
	}
	if err := runCompare(ok, filepath.Join(dir, "missing.json"), 25, false, false); err == nil {
		t.Error("missing baseline passed")
	}
}

// TestCompareZeroBaseline pins that a zero baseline is a guarantee, not
// a free pass: growth from 0 allocs/op is an (infinite-percent)
// regression at any tolerance.
func TestCompareZeroBaseline(t *testing.T) {
	dir := t.TempDir()
	old := writeBaseline(t, dir, "old.json", []Benchmark{
		{Name: "ZeroAlloc", NsPerOp: 1000, AllocsPerOp: 0},
	})
	broken := writeBaseline(t, dir, "broken.json", []Benchmark{
		{Name: "ZeroAlloc", NsPerOp: 1000, AllocsPerOp: 10000},
	})
	if err := runCompare(old, broken, 1000, false, false); err == nil {
		t.Error("0 -> 10000 allocs/op passed the gate")
	}
	still := writeBaseline(t, dir, "still.json", []Benchmark{
		{Name: "ZeroAlloc", NsPerOp: 1100, AllocsPerOp: 0},
	})
	if err := runCompare(old, still, 25, false, false); err != nil {
		t.Errorf("0 -> 0 allocs/op failed the gate: %v", err)
	}
}

// TestCompareAllocsOnly pins the cross-machine mode: ns/op drift never
// gates, allocs/op regressions still do.
func TestCompareAllocsOnly(t *testing.T) {
	dir := t.TempDir()
	old := writeBaseline(t, dir, "old.json", []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 100},
	})
	slowSameAllocs := writeBaseline(t, dir, "slow.json", []Benchmark{
		{Name: "A", NsPerOp: 9000, AllocsPerOp: 100}, // 9× wall, other machine
	})
	if err := runCompare(old, slowSameAllocs, 25, true, false); err != nil {
		t.Errorf("allocs-only mode gated on ns/op drift: %v", err)
	}
	if err := runCompare(old, slowSameAllocs, 25, false, false); err == nil {
		t.Error("full mode ignored a 9× ns/op regression")
	}
	moreAllocs := writeBaseline(t, dir, "allocs.json", []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 200},
	})
	if err := runCompare(old, moreAllocs, 25, true, false); err == nil {
		t.Error("allocs-only mode passed a 2× allocs/op regression")
	}
}

// TestCompareBytesGate pins the memory-baseline mode: B/op regressions
// gate only under -bytes (they are machine-independent, like allocs/op,
// but only the memory baselines declare a bytes contract).
func TestCompareBytesGate(t *testing.T) {
	dir := t.TempDir()
	old := writeBaseline(t, dir, "old.json", []Benchmark{
		{Name: "M", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100},
	})
	moreBytes := writeBaseline(t, dir, "bytes.json", []Benchmark{
		{Name: "M", NsPerOp: 1000, BytesPerOp: 4 << 20, AllocsPerOp: 100},
	})
	if err := runCompare(old, moreBytes, 25, false, false); err != nil {
		t.Errorf("default mode gated on B/op: %v", err)
	}
	if err := runCompare(old, moreBytes, 25, false, true); err == nil {
		t.Error("-bytes mode passed a 4x B/op regression")
	}
	fewerBytes := writeBaseline(t, dir, "fewer.json", []Benchmark{
		{Name: "M", NsPerOp: 1000, BytesPerOp: 1 << 18, AllocsPerOp: 100},
	})
	if err := runCompare(old, fewerBytes, 25, false, true); err != nil {
		t.Errorf("-bytes mode gated on a B/op improvement: %v", err)
	}
}

// TestCompareRejectsMixedSettings pins that two baselines recorded at
// different gomaxprocs are not compared: pooled allocations move with
// the setting, so even equal counts would mean nothing.
func TestCompareRejectsMixedSettings(t *testing.T) {
	dir := t.TempDir()
	benches := []Benchmark{{Name: "A", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10}}
	one := writeBaseline(t, dir, "one.json", benches)
	two := writeReport(t, dir, "two.json", Report{GOMAXPROCS: 2, Benchmarks: benches})
	if err := runCompare(one, two, 25, true, false); err == nil {
		t.Error("a gomaxprocs 1 baseline was compared with a gomaxprocs 2 run")
	}
	if err := runCompare(two, one, 25, true, false); err == nil {
		t.Error("a gomaxprocs 2 baseline was compared with a gomaxprocs 1 run")
	}
	if err := runCompare(two, two, 25, true, false); err != nil {
		t.Errorf("two gomaxprocs 2 files failed to compare: %v", err)
	}
}

// TestParseBench pins the line parser: the -N name suffix is the
// recorded GOMAXPROCS (1 when absent, as under -cpu 1), -match filters
// before the setting is read, and kept lines at two settings are an
// error.
func TestParseBench(t *testing.T) {
	parse := func(out, match string) ([]Benchmark, int, error) {
		t.Helper()
		var keep *regexp.Regexp
		if match != "" {
			keep = regexp.MustCompile(match)
		}
		return parseBench(strings.NewReader(out), keep)
	}
	oneCPU := `goos: linux
BenchmarkE01Crossing        	      20	     28533 ns/op	   21370 B/op	     197 allocs/op
BenchmarkMemoryFlood/n=1024 	       2	    737000 ns/op
PASS
`
	benches, procs, err := parse(oneCPU, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "E01Crossing", Iterations: 20, NsPerOp: 28533, BytesPerOp: 21370, AllocsPerOp: 197},
		{Name: "MemoryFlood/n=1024", Iterations: 2, NsPerOp: 737000},
	}
	if procs != 1 || !reflect.DeepEqual(benches, want) {
		t.Errorf("no suffix: got %+v at %d, want %+v at 1", benches, procs, want)
	}

	twoCPU := `BenchmarkE01Crossing-2      	      20	     28533 ns/op	   21370 B/op	     197 allocs/op
BenchmarkMemoryFlood/n=1024-2	       2	    737000 ns/op
`
	benches, procs, err = parse(twoCPU, "")
	if err != nil {
		t.Fatal(err)
	}
	if procs != 2 || !reflect.DeepEqual(benches, want) {
		t.Errorf("-2 suffix: got %+v at %d, want %+v at 2", benches, procs, want)
	}

	mixed := "BenchmarkE01Crossing   20   28533 ns/op\nBenchmarkMemoryA-2   2   737000 ns/op\n"
	if _, _, err := parse(mixed, ""); err == nil {
		t.Error("lines at GOMAXPROCS 1 and 2 parsed into one file")
	}
	benches, procs, err = parse(mixed, "^Memory")
	if err != nil || procs != 2 || len(benches) != 1 {
		t.Errorf("-match ^Memory over mixed lines: got %+v at %d (%v), want MemoryA at 2", benches, procs, err)
	}
}
