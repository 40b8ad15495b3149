// Command bccsim runs one BCC(b) algorithm on one generated instance and
// reports the outcome: verdict, component labels, rounds, and broadcast
// bits.
//
// Usage:
//
//	bccsim -model kt1 -graph cycle -n 32 -algo neighborhood
//	bccsim -model kt0 -graph twocycle -n 64 -algo kt0-exchange
//	bccsim -model kt1 -graph random -n 24 -algo boruvka -seed 7
//	bccsim -model kt1 -graph twocycle -n 64 -algo flood -trials 500 -parallel 4
//	bccsim -family er-threshold -n 48 -algo boruvka
//	bccsim -family barbell -protocol sketch-a1 -n 32
//
// -family generates the input from a registered scenario family
// (internal/family; overrides -graph, with the family's invariants
// verified on the generated instance). -protocol runs a registered
// protocol adapter (internal/protocol) instead of -algo: the adapter
// sizes itself for the input, builds its own instance, and reports the
// unified Outcome — per-round cost, verdict, labels, and whether a
// failure was a detectable refusal.
//
// With -trials N the simulator additionally estimates the algorithm's
// Monte Carlo error over N coin seeds (run in parallel on -parallel
// workers; the estimate is bit-identical at any worker count). The
// built-in algorithms are all deterministic — they ignore the public
// coin, so their estimate is exactly 0 or 1; the sweep becomes
// informative for coin-using algorithms wired in here.
//
// The -trials sweep runs as a spec on the shared experiment engine, so
// its estimate lands in the same content-addressed result cache used by
// cmd/experiments and the bccd server: repeating an identical sweep is a
// cache hit, not a recomputation (-cache-dir none forces a recompute).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/engine"
	"bcclique/internal/family"
	"bcclique/internal/graph"
	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/protocol"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

func main() {
	// SIGINT/SIGTERM cancel the simulation via context: the round loop
	// stops at its next boundary, nothing partial is cached, and the exit
	// status reports the interruption. A second signal kills the process
	// the default way (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		logger := obs.NewLogger(os.Stderr, "bccsim")
		if errors.Is(err, context.Canceled) {
			logger.Warn("interrupted — run abandoned mid-simulation; completed sweep results remain cached")
			os.Exit(130)
		}
		logger.Error("run failed", "error", err.Error())
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		model     = flag.String("model", "kt1", "knowledge variant: kt0 or kt1")
		graphKind = flag.String("graph", "cycle", "input graph: cycle, twocycle, cover, or random")
		famName   = flag.String("family", "", "generate the input from this scenario family (overrides -graph): "+family.Describe())
		n         = flag.Int("n", 16, "number of vertices")
		algoName  = flag.String("algo", "neighborhood", "algorithm: neighborhood, kt0-exchange, boruvka, or flood")
		protoName = flag.String("protocol", "", "run this protocol adapter instead of -algo (sizes itself, builds its own instance): "+strings.Join(protocol.Names(), ", "))
		bandwidth = flag.Int("b", 1, "bandwidth for flood")
		seed      = flag.Int64("seed", 1, "seed for graph generation and wiring")
		verbose   = flag.Bool("v", false, "print per-vertex labels")
		trials    = flag.Int("trials", 0, "estimate Monte Carlo error over this many coin seeds (0 = off; -algo path only)")
		par       = flag.Int("parallel", 0, "worker count for seed sweeps (0 = all CPUs, 1 = sequential)")
		cacheDir  = flag.String("cache-dir", "", "result cache for -trials sweeps (default: <user cache dir>/bcclique, \"none\" disables caching)")
	)
	flag.Parse()
	parallel.SetLimit(*par)

	rng := rand.New(rand.NewSource(*seed))
	inputKind := *graphKind
	var (
		g   *graph.Graph
		err error
	)
	if *famName != "" {
		fam, ok := family.Lookup(*famName)
		if !ok {
			return fmt.Errorf("unknown family %q (have: %s)", *famName, family.Describe())
		}
		inputKind = "family:" + fam.Name()
		g, err = fam.Build(*n, *seed)
	} else {
		g, err = buildGraph(*graphKind, *n, rng)
	}
	if err != nil {
		return err
	}
	if *protoName != "" {
		// The adapter sizes itself and builds its own instance, so
		// explicitly-set -algo-path flags would be silently dropped;
		// reject them instead.
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algo", "b", "model", "trials":
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("%s does not apply to -protocol (adapters pick bandwidth, model and instance themselves; -trials needs the -algo path)",
				strings.Join(bad, ", "))
		}
		return runProtocol(ctx, *protoName, g, inputKind, *n, *seed, *verbose)
	}
	in, err := buildInstance(*model, g, rng)
	if err != nil {
		return err
	}
	algo, deterministic, err := buildAlgorithm(*algoName, *n, *bandwidth, g)
	if err != nil {
		return err
	}

	res, err := bcc.RunContext(ctx, in, algo, bcc.WithCoin(bcc.NewCoin(*seed)))
	if err != nil {
		return err
	}

	lengths, twoRegular := g.CycleLengths()
	fmt.Printf("instance : %s, n=%d, %s, %d edges, %d components\n",
		in.Knowledge(), *n, inputKind, g.M(), g.NumComponents())
	if twoRegular {
		fmt.Printf("cycles   : %v\n", lengths)
	}
	fmt.Printf("algorithm: %s (b=%d)\n", algo.Name(), algo.Bandwidth())
	fmt.Printf("path     : %s\n", pathName(res.BitPlane))
	fmt.Printf("rounds   : %d\n", res.Rounds)
	fmt.Printf("bits     : %d broadcast in total\n", res.TotalBits)
	if res.HasVerdict {
		truth := "disconnected"
		if g.IsConnected() {
			truth = "connected"
		}
		fmt.Printf("verdict  : %v (ground truth: %s)\n", res.Verdict, truth)
	}
	if res.Labels != nil {
		distinct := make(map[int]bool)
		for _, l := range res.Labels {
			distinct[l] = true
		}
		fmt.Printf("labels   : %d distinct component labels\n", len(distinct))
		if *verbose {
			for v, l := range res.Labels {
				fmt.Printf("  vertex %3d (id %3d): component %d\n", v, in.ID(v), l)
			}
		}
	}
	if *trials > 0 {
		if !res.HasVerdict {
			fmt.Printf("error    : -trials skipped (%s produces no verdict)\n", algo.Name())
			return nil
		}
		want := bcc.VerdictNo
		if g.IsConnected() {
			want = bcc.VerdictYes
		}
		// inputKind (not *graphKind) is the cache identity: with -family
		// it reads "family:<name>", so a family sweep can never collide
		// with a -graph sweep of the same size and seed.
		sweep, cached, err := runSweep(ctx, in, algo, want, sweepSpec{
			model: *model, graphKind: inputKind, n: *n, algo: *algoName,
			b: *bandwidth, seed: *seed, trials: *trials, cacheDir: *cacheDir,
		})
		if err != nil {
			return err
		}
		note := ""
		if deterministic {
			note = fmt.Sprintf("; note: %s is deterministic, so all seeds agree", algo.Name())
		}
		src := fmt.Sprintf("%d workers", parallel.Limit())
		if cached {
			src = "cached"
		}
		fmt.Printf("error    : %s over %d seeds (%s%s)\n", sweep.Finding, *trials, src, note)
	}
	return nil
}

// runProtocol runs a registered protocol adapter on g and prints its
// unified Outcome.
func runProtocol(ctx context.Context, name string, g *graph.Graph, inputKind string, n int, seed int64, verbose bool) error {
	p, ok := protocol.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown protocol %q (have: %s)", name, strings.Join(protocol.Names(), ", "))
	}
	out, err := p.Run(ctx, g, seed)
	if err != nil {
		return err
	}
	lengths, twoRegular := g.CycleLengths()
	fmt.Printf("instance : n=%d, %s, %d edges, %d components\n",
		n, inputKind, g.M(), g.NumComponents())
	if twoRegular {
		fmt.Printf("cycles   : %v\n", lengths)
	}
	fmt.Printf("protocol : %s (b=%d)\n", out.Protocol, out.Bandwidth)
	fmt.Printf("path     : %s\n", pathName(out.BitPlane))
	fmt.Printf("rounds   : %d\n", out.Rounds)
	fmt.Printf("bits     : %d broadcast in total (%.4g bits/round)\n",
		out.TotalBits, float64(out.TotalBits)/float64(max(1, out.Rounds)))
	s := out.Summary()
	fmt.Printf("per round: min %d / median %d / p95 %d / max %d bits\n",
		s.MinBits, s.MedianBits, s.P95Bits, s.MaxBits)
	if out.HasVerdict {
		truth := "disconnected"
		if g.IsConnected() {
			truth = "connected"
		}
		fmt.Printf("verdict  : %v (ground truth: %s)\n", out.Verdict, truth)
	}
	switch {
	case out.Correct:
		fmt.Println("outcome  : correct (verdict and labels match ground truth)")
	case out.Refused:
		fmt.Println("outcome  : refused detectably (every label is −1; input outside the protocol's promise)")
	default:
		fmt.Println("outcome  : SILENT WRONG ANSWER (model contract violation)")
	}
	if out.Labels != nil {
		distinct := make(map[int]bool)
		for _, l := range out.Labels {
			distinct[l] = true
		}
		fmt.Printf("labels   : %d distinct component labels\n", len(distinct))
		if verbose {
			for v, l := range out.Labels {
				fmt.Printf("  vertex %3d: component %d\n", v, l)
			}
		}
	}
	return nil
}

// sweepSpec is the declarative identity of one Monte Carlo sweep: every
// field that determines the estimate, canonically encoded into the
// engine spec so identical sweeps share one cache entry.
type sweepSpec struct {
	model, graphKind, algo string
	n, b, trials           int
	seed                   int64
	cacheDir               string
}

// runSweep estimates the Monte Carlo error through the shared experiment
// engine, so repeated identical sweeps are served from the result cache.
func runSweep(ctx context.Context, in *bcc.Instance, algo bcc.Algorithm, want bcc.Verdict, ss sweepSpec) (*report.Result, bool, error) {
	spec := engine.Spec{
		ID:       "bccsim",
		Title:    fmt.Sprintf("Monte Carlo error of %s on %s (n=%d)", ss.algo, ss.graphKind, ss.n),
		PaperRef: "Section 1.2 (Monte Carlo error accounting)",
		Params: engine.Params{
			Trials: ss.trials,
			Extra: fmt.Sprintf("model=%s;graph=%s;n=%d;algo=%s;b=%d;want=%v",
				ss.model, ss.graphKind, ss.n, ss.algo, ss.b, want),
		},
		Run: func(ctx context.Context, cfg engine.Config, p engine.Params) (*report.Result, error) {
			seeds := make([]int64, p.Trials)
			for i := range seeds {
				seeds[i] = parallel.DeriveSeed(cfg.Seed, i)
			}
			eps, err := bcc.EstimateErrorContext(ctx, in, algo, want, seeds)
			if err != nil {
				return nil, err
			}
			table := &report.Table{
				Title:   "Monte Carlo error estimate",
				Headers: []string{"seeds", "target verdict", "error"},
			}
			table.AddRow(p.Trials, want, eps)
			return &report.Result{
				Claim:   "The public-coin Monte Carlo error is the fraction of coin seeds on which the algorithm misdecides.",
				Finding: report.FormatFloat(eps),
				Tables:  []*report.Table{table},
			}, nil
		},
	}
	store, err := results.OpenFlag(ss.cacheDir)
	if err != nil {
		return nil, false, err
	}
	var opts []engine.Option
	if store != nil {
		opts = append(opts, engine.WithStore(store))
	}
	eng := engine.New([]engine.Spec{spec}, opts...)
	var hits atomic.Int64
	out, err := eng.Run(ctx, engine.Config{Seed: ss.seed}, nil, func(ev engine.Event) {
		if ev.Kind == engine.EventCached {
			hits.Add(1)
		}
	})
	if err != nil {
		return nil, false, err
	}
	return out[0], hits.Load() > 0, nil
}

// pathName names the simulator path a run took: the word-packed 1-bit
// broadcast plane, or the generic per-message loop.
func pathName(bitPlane bool) string {
	if bitPlane {
		return "bit plane (word-packed 1-bit broadcasts)"
	}
	return "generic (per-message delivery)"
}

func buildGraph(kind string, n int, rng *rand.Rand) (*graph.Graph, error) {
	switch kind {
	case "cycle":
		return graph.RandomOneCycle(n, rng), nil
	case "twocycle":
		if n < 6 {
			return nil, fmt.Errorf("twocycle needs n ≥ 6")
		}
		return graph.RandomTwoCycle(n, n/2, rng)
	case "cover":
		return graph.RandomCycleCover(n, rng), nil
	case "random":
		g := graph.New(n)
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

func buildInstance(model string, g *graph.Graph, rng *rand.Rand) (*bcc.Instance, error) {
	ids := bcc.SequentialIDs(g.N())
	switch model {
	case "kt0":
		return bcc.NewKT0(ids, g, bcc.RandomWiring(g.N(), rng))
	case "kt1":
		return bcc.NewKT1(ids, g)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}

// buildAlgorithm returns the selected algorithm and whether it is
// deterministic (ignores the public coin). Keep the flag in sync when
// wiring in a coin-using algorithm: it qualifies the -trials report.
func buildAlgorithm(name string, n, b int, g *graph.Graph) (algo bcc.Algorithm, deterministic bool, err error) {
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	idBits := max(1, bits.Len(uint(n-1)))
	switch name {
	case "neighborhood":
		algo, err = algorithms.NewNeighborhoodBroadcast(maxDeg)
	case "kt0-exchange":
		algo, err = algorithms.NewKT0Exchange(maxDeg, idBits)
	case "boruvka":
		algo, err = algorithms.NewBoruvka(idBits)
	case "flood":
		algo, err = algorithms.NewFlood(b)
	default:
		return nil, false, fmt.Errorf("unknown algorithm %q", name)
	}
	return algo, true, err
}
