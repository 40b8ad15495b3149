// Command bccbench is the repository's end-to-end benchmark. For each
// workload it boots a fresh bccd with the production defaults, drives
// it over HTTP from one process, checks every response, and reports
// the metrics named in BENCHMARK.json. A traced run then replays a
// prefix of the same requests in process, through the calls bccd's
// handlers make and under the engine's own tracer, to split the time
// by layer.
//
// Usage, from the repository root (bench/run.sh builds it with every Go
// cache kept inside the checkout):
//
//	bash bench/run.sh -workload sweep-cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1      # every workload, traced; one JSON document
//	bash bench/run.sh -smoke       # 2 s windows, K = 2; never a source of numbers
//	bash bench/run.sh -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Without it the
// output is one document with both sets for every workload, each metric
// with its unit and sample count. The exit code is 0 only when every
// check passed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the one-line result (default: every workload, traced)")
		seed         = flag.Int64("seed", 1, "input seed: the seeds of the cold requests derive from it")
		seconds      = flag.Float64("seconds", 0, "measured window per workload (default: run_seconds in BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
		smoke        = flag.Bool("smoke", false, "every workload with 2 s windows and K = 2, for iterating on the benchmark")
		compare      = flag.Bool("compare", false, "compare two result files (A.json B.json) against BENCHMARK.json's bounds")
		bccdPath     = flag.String("bccd", "", "bccd binary to drive (default: build ./cmd/bccd)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare wants two files: A.json B.json"))
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	var one *workload
	if *workloadName != "" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		one = w
	}

	b, cleanup, err := newBench(ctx, root, *bccdPath)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	b.seed = *seed
	b.window = time.Duration(float64(spec.RunSeconds) * float64(time.Second))
	if *seconds > 0 {
		b.window = time.Duration(*seconds * float64(time.Second))
	}
	if *smoke {
		b.window, b.smoke = 2*time.Second, true
	}

	if one != nil {
		o, err := b.measure(ctx, one, *trace == 1)
		if err != nil {
			return fail(err)
		}
		metrics := spec.EndToEnd
		if *trace == 1 {
			metrics = spec.PerLayer
		}
		if !b.smoke {
			o.requireAll(metrics)
		}
		o.report(os.Stderr, one.name)
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{o.failed == 0, o.attempted, o.failed, map[string]metric{}}
		for _, m := range metrics {
			if v, ok := o.values[m.Name]; ok {
				line.Metrics[m.Name] = metric{Value: v.Value, Unit: m.Unit}
			}
		}
		enc, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(enc))
		if !line.Correct {
			return 1
		}
		return 0
	}

	doc := document{Seed: b.seed, Seconds: b.window.Seconds(), Procs: b.procs, Smoke: *smoke}
	code := 0
	for _, w := range workloads {
		o, err := b.measure(ctx, w, true)
		if err != nil {
			return fail(err)
		}
		if !b.smoke {
			o.requireAll(spec.EndToEnd)
			o.requireAll(spec.PerLayer)
		}
		o.report(os.Stderr, w.name)
		res := workloadResult{Name: w.name, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
			Failures: o.failures, Refused: o.refused, Discarded: o.discarded, Streams: o.streams, HostScale: median(o.scales),
			EndToEnd: pick(spec.EndToEnd, o), PerLayer: pick(spec.PerLayer, o)}
		if !res.Correct {
			code = 1
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fail(err)
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bccbench:", err)
	return 2
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s", wd)
		}
	}
}

// bench holds what every workload of one process shares.
type bench struct {
	client *http.Client // the load generator's
	probe  *http.Client // readiness probe and /metrics scraper
	bin    string
	dir    string
	log    *os.File // bccd's output: .bench_build/bccd.log
	procs  int
	seed   int64
	window time.Duration
	smoke  bool
	replay *replayer
	ref    *reference
}

// setupBoots is how many times a run boots bccd to time its set-up;
// setup_s takes the median.
const setupBoots = 9

// newBench pins the generator to the machine's CPUs, builds bccd unless
// one is given, and makes the run's scratch directory under
// .bench_build; cleanup removes it.
func newBench(ctx context.Context, root, bin string) (*bench, func(), error) {
	procs := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, nil, err
	}
	log, err := os.Create(filepath.Join(build, "bccd.log"))
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() {
		log.Close()
		os.RemoveAll(dir)
	}
	if bin == "" {
		bin = filepath.Join(build, "bccd")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bccd")
		cmd.Dir, cmd.Stdout, cmd.Stderr = root, os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("build bccd: %w", err)
		}
	}
	rp, err := newReplayer(filepath.Join(dir, "replay"), procs)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	ref, err := newReference(filepath.Join(dir, "reference"), procs)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	// One transport for every stream: the generator never holds more
	// connections than CPUs. The 120 s timeout never cancels a request
	// inside a window. The scraper has a connection of its own, so a
	// scrape never waits for, or holds, a connection a due request needs.
	tr := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	probe := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &bench{
		client: &http.Client{Transport: tr, Timeout: 120 * time.Second},
		probe:  &http.Client{Transport: probe, Timeout: 30 * time.Second},
		bin:    bin,
		dir:    dir,
		log:    log,
		procs:  procs,
		replay: rp,
		ref:    ref,
	}, cleanup, nil
}

// smokeK is every kind's replay count under -smoke.
const smokeK = 2

// k is how many requests of kind k the replay runs.
func (b *bench) k(k *kind) int {
	if b.smoke {
		return smokeK
	}
	return k.replayK
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
