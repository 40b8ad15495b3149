// Command bccsim runs one registered protocol on one graph of a
// registered family and reports the outcome: per-round cost, verdict,
// component labels, and whether a failure was a detectable refusal.
//
// Usage:
//
//	bccsim -family one-cycle -protocol neighborhood -n 32
//	bccsim -family two-cycle -protocol flood-b1 -n 64
//	bccsim -family one-cycle -protocol kt0-exchange -n 32 -seed 3
//	bccsim -family er-threshold -protocol boruvka -n 48 -v
//	bccsim -family barbell -protocol sketch-a1 -n 32
//
// -family generates the input from a scenario family (internal/family),
// with the family's invariants verified on the generated graph.
// -protocol runs a protocol adapter (internal/protocol), which sizes
// itself for the input, builds its own instance, and reports the unified
// Outcome. These are the same two registries the E17/E18 sweep grids and
// bccd run, so a bccsim run is what a sweep cell does for one of its
// seeds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"bcclique/internal/family"
	"bcclique/internal/obs"
	"bcclique/internal/protocol"
)

func main() {
	// SIGINT/SIGTERM cancel the simulation via context: the round loop
	// stops at its next boundary and the exit status reports the
	// interruption. A second signal kills the process the default way
	// (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	// flag has printed the usage for -h and for a rejected command line;
	// exit 0 and 2 for them, as flag.ExitOnError does.
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errUsage):
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, "bccsim")
	if errors.Is(err, context.Canceled) {
		logger.Warn("interrupted — run abandoned mid-simulation")
		os.Exit(130)
	}
	logger.Error("run failed", "error", err.Error())
	os.Exit(1)
}

// errUsage marks a command line the flag set rejected.
var errUsage = errors.New("usage")

// run parses args, runs the selected protocol on the selected family,
// and prints the report to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bccsim", flag.ContinueOnError)
	var (
		famName   = fs.String("family", "one-cycle", "generate the input from this scenario family: "+family.Describe())
		protoName = fs.String("protocol", "neighborhood", "run this protocol adapter: "+strings.Join(protocol.Names(), ", "))
		n         = fs.Int("n", 16, "number of vertices")
		seed      = fs.Int64("seed", 1, "seed for the family's graph and the protocol's wiring")
		verbose   = fs.Bool("v", false, "print per-vertex labels")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	fam, ok := family.Lookup(*famName)
	if !ok {
		return fmt.Errorf("unknown family %q (have: %s)", *famName, family.Describe())
	}
	p, ok := protocol.Lookup(*protoName)
	if !ok {
		return fmt.Errorf("unknown protocol %q (have: %s)", *protoName, strings.Join(protocol.Names(), ", "))
	}
	g, err := fam.Build(*n, *seed)
	if err != nil {
		return err
	}
	out, err := p.Run(ctx, g, *seed)
	if err != nil {
		return err
	}

	lengths, twoRegular := g.CycleLengths()
	fmt.Fprintf(w, "instance : n=%d, family:%s, %d edges, %d components\n",
		*n, fam.Name(), g.M(), g.NumComponents())
	if twoRegular {
		fmt.Fprintf(w, "cycles   : %v\n", lengths)
	}
	fmt.Fprintf(w, "protocol : %s (b=%d)\n", out.Protocol, out.Bandwidth)
	fmt.Fprintf(w, "path     : %s\n", pathName(out.BitPlane))
	fmt.Fprintf(w, "rounds   : %d\n", out.Rounds)
	fmt.Fprintf(w, "bits     : %d broadcast in total (%.4g bits/round)\n",
		out.TotalBits, float64(out.TotalBits)/float64(max(1, out.Rounds)))
	s := out.Summary()
	fmt.Fprintf(w, "per round: min %d / median %d / p95 %d / max %d bits\n",
		s.MinBits, s.MedianBits, s.P95Bits, s.MaxBits)
	if out.HasVerdict {
		truth := "disconnected"
		if g.IsConnected() {
			truth = "connected"
		}
		fmt.Fprintf(w, "verdict  : %v (ground truth: %s)\n", out.Verdict, truth)
	}
	switch {
	case out.Correct:
		fmt.Fprintln(w, "outcome  : correct (verdict and labels match ground truth)")
	case out.Refused:
		fmt.Fprintln(w, "outcome  : refused detectably (every label is −1; input outside the protocol's promise)")
	default:
		fmt.Fprintln(w, "outcome  : SILENT WRONG ANSWER (model contract violation)")
	}
	if out.Labels != nil {
		distinct := make(map[int]bool)
		for _, l := range out.Labels {
			distinct[l] = true
		}
		fmt.Fprintf(w, "labels   : %d distinct component labels\n", len(distinct))
		if *verbose {
			for v, l := range out.Labels {
				fmt.Fprintf(w, "  vertex %3d: component %d\n", v, l)
			}
		}
	}
	return nil
}

// pathName names the simulator path a run took: the word-packed 1-bit
// broadcast plane, or the generic per-message loop.
func pathName(bitPlane bool) string {
	if bitPlane {
		return "bit plane (word-packed 1-bit broadcasts)"
	}
	return "generic (per-message delivery)"
}
