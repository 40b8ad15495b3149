package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: metric
// units, directions and regression bounds, and the run window.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// document is the output of a run over every workload.
type document struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Procs     int              `json:"procs"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  map[string]int    `json:"failures,omitempty"`
	Refused   map[string]string `json:"refused,omitempty"`
	Discarded []string          `json:"discarded,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	// HostScale is the median factor that took the window's slices to
	// the reference speed; Streams are unscaled.
	HostScale float64         `json:"host_scale"`
	Streams   []streamSummary `json:"streams"`
}

// metric is one measured value. The one-line result of a -workload run
// leaves Samples out.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// pick returns the measured metrics of ms with their units.
func pick(ms []specMetric, o *outcome) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		if v, ok := o.values[m.Name]; ok {
			v.Unit = m.Unit
			out[m.Name] = v
		}
	}
	return out
}

// readDocuments reads every document in a file; several runs may be
// concatenated.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		err := dec.Decode(&d)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return docs, nil
}

// verdict is the comparison of one (workload, metric) pair.
type verdict struct {
	medA, medB float64
	worse      float64 // share of A's median by which B is worse
	spread     float64 // the wider of the two sides' quartile spreads
	status     string  // regressed, unchanged or unresolved
}

// judge compares B's runs with A's for one metric. B regressed when its
// median is worse than A's by more than the bound. Where either side's
// run-to-run spread exceeds the bound the pair is unresolved, unless
// every run of B reads better than every run of A.
func judge(m specMetric, a, b []float64) verdict {
	v := verdict{medA: median(a), medB: median(b)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if v.medA != 0 {
		v.worse = sign * (v.medB - v.medA) / v.medA
	}
	v.spread = max(spread(a), spread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.spread > m.Bound && !allBetter:
		v.status = "unresolved"
	case v.worse > m.Bound:
		v.status = "regressed"
	default:
		v.status = "unchanged"
	}
	return v
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles computed as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartile(xs, 1), quartile(xs, 3)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func quartile(xs []float64, i int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// pair of B against A, and one for failures. It returns 1 when anything
// regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readDocuments(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readDocuments(pathB)
	if err != nil {
		return fail(err)
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "verdict")
	for _, wr := range a[0].Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wr.Name, m.Name), values(b, wr.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s  unresolved (missing)\n", wr.Name, m.Name, "-", "-", "-", "-")
				continue
			}
			v := judge(m, va, vb)
			fmt.Fprintf(w, "%-12s %-16s %12.4g %12.4g %7.1f%% %7.1f%%  %s\n",
				wr.Name, m.Name, v.medA, v.medB, 100*v.worse, 100*v.spread, v.status)
			if v.status == "regressed" {
				code = 1
			}
		}
		if failedA, failedB := failures(a, wr.Name), failures(b, wr.Name); failedB > failedA {
			fmt.Fprintf(w, "%-12s %-16s %12d %12d %8s %8s  regressed\n", wr.Name, "failed", failedA, failedB, "-", "-")
			code = 1
		}
	}
	return code
}

func values(docs []document, workload, name string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, wr := range d.Workloads {
			if m, ok := wr.EndToEnd[name]; ok && wr.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func failures(docs []document, workload string) int {
	total := 0
	for _, d := range docs {
		for _, wr := range d.Workloads {
			if wr.Name == workload {
				total += wr.Failed
			}
		}
	}
	return total
}
