// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON perf baseline, so successive PRs can
// compare ns/op and allocs/op per E-series benchmark.
//
// Usage:
//
//	go test -bench 'BenchmarkE' -benchmem -benchtime 20x -run '^$' . | benchjson -out BENCH_engine.json
//	go test -bench . -benchmem -run '^$' . | benchjson -match '^Sweep' -out BENCH_sweeps.json
//	benchjson -compare BENCH_scale.json fresh.json -tolerance 25
//
// -match keeps only benchmarks whose (Benchmark-prefix-stripped) name
// matches the regexp, so one bench pass can feed several scoped baseline
// files.
//
// -compare old.json new.json switches to regression mode: the two
// baseline files are matched by benchmark name and the command exits
// non-zero if any shared benchmark regressed in ns/op or allocs/op —
// plus B/op with -bytes, the gate the memory baselines use — by
// more than -tolerance percent. Benchmarks present in only one file are
// reported but never fail the comparison (a new benchmark is not a
// regression). CI runs this against the checked-in baselines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the emitted baseline file.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkE01Crossing-8   20   40222 ns/op   24636 B/op   424 allocs/op
//
// (the -8 CPU suffix and the two -benchmem columns are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "", "write JSON here instead of stdout")
	match := flag.String("match", "", "keep only benchmarks whose name matches this regexp (after stripping the Benchmark prefix)")
	compare := flag.Bool("compare", false, "regression mode: compare two baseline files given as positional args (old.json new.json)")
	tolerance := flag.Float64("tolerance", 25, "allowed regression in percent for -compare (ns/op and allocs/op)")
	allocsOnly := flag.Bool("allocs-only", false, "with -compare, gate only on allocs/op (ns/op is still reported) — for cross-machine comparisons where wall time is not comparable")
	bytesGate := flag.Bool("bytes", false, "with -compare, additionally gate on B/op — machine-independent like allocs/op, the gate for memory-footprint baselines")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two positional files: old.json new.json")
		}
		return runCompare(flag.Arg(0), flag.Arg(1), *tolerance, *allocsOnly, *bytesGate)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("positional arguments only apply to -compare (got %q)", flag.Args())
	}

	var keep *regexp.Regexp
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			return fmt.Errorf("bad -match regexp: %w", err)
		}
		keep = re
	}

	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: strings.TrimPrefix(m[1], "Benchmark")}
		if keep != nil && !keep.MatchString(b.Name) {
			continue
		}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		if keep != nil {
			return fmt.Errorf("no benchmark lines matched -match %q (pipe `go test -bench` output)", *match)
		}
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output)")
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// loadReport reads one baseline file.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return &r, nil
}

// runCompare diffs two baselines benchmark by benchmark and fails on
// regressions beyond tolerance percent. Improvements and within-
// tolerance drift are reported as OK. ns/op is only comparable between
// runs of the same machine; cross-machine gates (CI against a
// checked-in baseline) pass allocsOnly so the machine-independent
// allocation counts gate and wall time is report-only.
func runCompare(oldPath, newPath string, tolerance float64, allocsOnly, bytesGate bool) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	// A zero baseline is a guarantee (e.g. 0 allocs/op iteration), not a
	// free pass: any growth from it is an infinite-percent regression.
	pct := func(oldV, newV float64) float64 {
		if oldV == 0 {
			if newV == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return (newV - oldV) / oldV * 100
	}
	regressions := 0
	seen := make(map[string]bool, len(newRep.Benchmarks))
	for _, nb := range newRep.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("NEW   %-40s %12.0f ns/op (no baseline)\n", nb.Name, nb.NsPerOp)
			continue
		}
		nsDelta := pct(ob.NsPerOp, nb.NsPerOp)
		allocDelta := pct(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		bytesDelta := pct(float64(ob.BytesPerOp), float64(nb.BytesPerOp))
		status := "OK    "
		if (!allocsOnly && nsDelta > tolerance) || allocDelta > tolerance || (bytesGate && bytesDelta > tolerance) {
			status = "REGR  "
			regressions++
		}
		fmt.Printf("%s%-40s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %8d -> %8d (%+6.1f%%)  B/op %12d -> %12d (%+6.1f%%)\n",
			status, nb.Name, ob.NsPerOp, nb.NsPerOp, nsDelta, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta, ob.BytesPerOp, nb.BytesPerOp, bytesDelta)
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[ob.Name] {
			fmt.Printf("GONE  %-40s (in %s only)\n", ob.Name, oldPath)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% tolerance", regressions, tolerance)
	}
	fmt.Printf("no regressions beyond %.0f%% tolerance (%d benchmarks compared)\n", tolerance, len(seen))
	return nil
}
