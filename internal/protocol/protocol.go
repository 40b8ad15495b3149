// Package protocol is the unified upper-bound interface of the scenario
// subsystem: every connectivity algorithm in the repository — the
// neighbourhood broadcast, the KT-0 ID exchange, Borůvka merging, the
// flooding baseline, and the arboricity-promise sketch peeling — is
// wrapped as one round-based Protocol that takes a bare input graph,
// sizes itself (degree bounds, ID widths, wiring), runs on the exact
// BCC(b) simulator, and returns a comparable Outcome: per-round
// broadcast-cost transcript, verdict, labels, and correctness against
// ground truth. Upper bounds thereby become comparable objects that
// sweep grids can quantify over, instead of bespoke experiment bodies.
//
// Every Protocol also exposes a canonical Key that feeds the engine's
// content-addressed cache, so cached sweep cells are invalidated
// whenever an adapter's declared parameters or version change.
package protocol

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/graph"
	"bcclique/internal/obs"
	"bcclique/internal/sketch"
)

// Outcome is the result of one protocol execution on one input graph:
// the per-round cost transcript plus the decision/labelling outputs,
// pre-compared against the ground truth computed from the input.
type Outcome struct {
	Protocol  string `json:"protocol"`
	N         int    `json:"n"`
	Bandwidth int    `json:"bandwidth"`
	Rounds    int    `json:"rounds"`
	// TotalBits is the number of bits broadcast over the whole run.
	TotalBits int `json:"total_bits"`
	// RoundBits[t] is the number of bits all vertices broadcast in round
	// t+1 — the per-round cost transcript.
	RoundBits  []int       `json:"round_bits"`
	HasVerdict bool        `json:"has_verdict"`
	Verdict    bcc.Verdict `json:"verdict"`
	Labels     []int       `json:"labels,omitempty"`
	// Correct reports whether verdict and labels both match the ground
	// truth of the input graph.
	Correct bool `json:"correct"`
	// Refused reports a detectable failure: every vertex output the
	// sentinel label −1 (and verdict NO), the contract promise
	// algorithms use to reject inputs outside their promise instead of
	// answering wrongly.
	Refused bool `json:"refused"`
	// BitPlane reports whether the run rode the simulator's word-packed
	// 1-bit fast path (flood-b1, neighborhood and kt0-exchange do; the
	// multi-bit boruvka and sketch adapters use the generic path).
	BitPlane bool `json:"bit_plane,omitempty"`
}

// SilentWrong reports the one outcome the model forbids: an answer that
// is wrong without being a detectable refusal.
func (o *Outcome) SilentWrong() bool { return !o.Correct && !o.Refused }

// RoundSummary is the memory-bounded digest of a per-round cost
// transcript: the totals plus order statistics of the RoundBits series.
// Sweep cells at large n reduce outcomes to this form (plus the
// scalar verdict fields) instead of retaining anything proportional to
// n; the series itself is only O(rounds).
type RoundSummary struct {
	Rounds     int `json:"rounds"`
	TotalBits  int `json:"total_bits"`
	MinBits    int `json:"min_bits"`    // quietest round
	MedianBits int `json:"median_bits"` // 50th-percentile round
	P95Bits    int `json:"p95_bits"`    // 95th-percentile round
	MaxBits    int `json:"max_bits"`    // loudest round
}

// SummarizeRounds digests a per-round bit series. Quantile q is the
// value at index ⌈q·len⌉−1 of the sorted series (the nearest-rank
// definition), so MedianBits and P95Bits are actual observed rounds.
func SummarizeRounds(roundBits []int) RoundSummary {
	s := RoundSummary{Rounds: len(roundBits)}
	if len(roundBits) == 0 {
		return s
	}
	sorted := append([]int(nil), roundBits...)
	sort.Ints(sorted)
	for _, b := range sorted {
		s.TotalBits += b
	}
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	s.MinBits = sorted[0]
	s.MedianBits = rank(0.50)
	s.P95Bits = rank(0.95)
	s.MaxBits = sorted[len(sorted)-1]
	return s
}

// Summary digests the outcome's per-round cost transcript.
func (o *Outcome) Summary() RoundSummary { return SummarizeRounds(o.RoundBits) }

// Protocol is one round-based BCC(b) upper bound viewed as a black box
// over input graphs.
type Protocol interface {
	// Name identifies the protocol in tables and CLI flags.
	Name() string
	// Key is the canonical encoding of the protocol's declarative
	// surface; it feeds the content-addressed cache key of every sweep
	// cell that runs this protocol.
	Key() string
	// Bandwidth returns the per-round bit budget used on size-n inputs.
	Bandwidth(n int) int
	// Run executes the protocol on g. The seed drives everything the
	// adapter randomizes (KT-0 port wiring, coins); equal (g, seed)
	// yield equal outcomes. The context is checked at every simulated
	// round boundary (see bcc.RunContext): a cancelled run returns
	// ctx's error and no Outcome.
	Run(ctx context.Context, g *graph.Graph, seed int64) (*Outcome, error)
}

// registry is the fixed protocol list, in registry order.
var registry = []Protocol{
	Neighborhood{},
	KT0Exchange{},
	Boruvka{},
	Flood{B: 1},
	Sketch{Arboricity: 1},
	Sketch{Arboricity: 2},
}

// All returns the registry in registry order.
func All() []Protocol { return append([]Protocol(nil), registry...) }

// Lookup finds a protocol by name.
func Lookup(name string) (Protocol, bool) {
	for _, p := range registry {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// Names returns the registered protocol names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name()
	}
	return out
}

// genericOracle, when true, forces every adapter run down the generic
// Message path even for bit-plane-capable algorithms. The equivalence
// suite flips it to pin bit-plane sweep outcomes against the oracle;
// it is not safe to toggle concurrently with running protocols.
var genericOracle bool

// maxDegree returns max(1, Δ(g)) — algorithm constructors reject a zero
// degree bound, and an edgeless graph still needs a schedule.
func maxDegree(g *graph.Graph) int {
	d := 1
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// bitsFor returns ⌈log₂ m⌉ (minimum 1), the ID width adapters provision
// for sequential IDs 0..n−1.
func bitsFor(m int) int { return max(1, bits.Len(uint(m-1))) }

// finish runs algo on the instance and assembles the Outcome, comparing
// verdict and labels against the ground truth of g. The run records no
// per-vertex transcripts — the per-round cost series comes straight
// from the runner's O(rounds) accounting — so memory stays bounded by
// the nodes' own state at any n.
func finish(ctx context.Context, name string, g *graph.Graph, in *bcc.Instance, algo bcc.Algorithm) (*Outcome, error) {
	opts := []bcc.Option{bcc.WithoutTranscripts()}
	if genericOracle {
		opts = append(opts, bcc.WithoutBitPlane())
	}
	res, err := bcc.RunContext(ctx, in, algo, opts...)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	out := &Outcome{
		Protocol:   name,
		N:          g.N(),
		Bandwidth:  algo.Bandwidth(),
		Rounds:     res.Rounds,
		TotalBits:  res.TotalBits,
		RoundBits:  res.RoundBits,
		HasVerdict: res.HasVerdict,
		Verdict:    res.Verdict,
		Labels:     res.Labels,
		BitPlane:   res.BitPlane,
	}
	// One union-find pass yields both ground truths (connectivity and
	// component labels) instead of two.
	truth := g.Components()
	wantVerdict := bcc.VerdictNo
	if g.N() == 0 || truth.Sets() == 1 {
		wantVerdict = bcc.VerdictYes
	}
	verdictOK := res.HasVerdict && res.Verdict == wantVerdict
	labelsOK := true
	if res.Labels != nil {
		for v, want := range truth.Least(nil) {
			if res.Labels[v] != int(want) {
				labelsOK = false
				break
			}
		}
	}
	out.Correct = verdictOK && labelsOK
	// A refusal is the full sentinel contract — verdict NO *and* every
	// label −1. An answer-shaped output (a YES verdict, or any real
	// label) is never a refusal, so a wrong YES alongside −1 labels
	// still counts as silently wrong.
	if res.HasVerdict && res.Verdict == bcc.VerdictNo && res.Labels != nil && len(res.Labels) > 0 {
		refused := true
		for _, l := range res.Labels {
			if l != -1 {
				refused = false
				break
			}
		}
		out.Refused = refused
	}
	// Under tracing the enclosing "run" span carries the verdict quality
	// alongside the cost attrs the caller sets: a trace of a stress grid
	// shows at a glance which runs refused or answered wrong.
	if span := obs.FromContext(ctx); span != nil {
		if out.Refused {
			span.SetNum("refused", 1)
		}
		if !out.Correct {
			span.SetNum("incorrect", 1)
		}
	}
	return out, nil
}

// kt1Instance builds the canonical KT-1 instance over sequential IDs;
// component labels then coincide with graph.ComponentLabels.
func kt1Instance(g *graph.Graph) (*bcc.Instance, error) {
	return bcc.NewKT1(bcc.SequentialIDs(g.N()), g)
}

// Neighborhood wraps algorithms.NeighborhoodBroadcast: deterministic
// KT-1 BCC(1) connectivity in Δ·⌈log₂ n⌉ rounds, sized to the input's
// maximum degree.
type Neighborhood struct{}

// Name implements Protocol.
func (Neighborhood) Name() string { return "neighborhood" }

// Key implements Protocol.
func (Neighborhood) Key() string { return "protocol=neighborhood;v=2;deg=auto" }

// Bandwidth implements Protocol.
func (Neighborhood) Bandwidth(int) int { return 1 }

// Run implements Protocol.
func (p Neighborhood) Run(ctx context.Context, g *graph.Graph, _ int64) (*Outcome, error) {
	algo, err := algorithms.NewNeighborhoodBroadcast(maxDegree(g))
	if err != nil {
		return nil, err
	}
	in, err := kt1Instance(g)
	if err != nil {
		return nil, err
	}
	return finish(ctx, p.Name(), g, in, algo)
}

// KT0Exchange wraps algorithms.KT0Exchange: the same guarantee in KT-0,
// run on a seeded uniformly random port wiring (the adapter's only use
// of the seed).
type KT0Exchange struct{}

// Name implements Protocol.
func (KT0Exchange) Name() string { return "kt0-exchange" }

// Key implements Protocol.
func (KT0Exchange) Key() string { return "protocol=kt0-exchange;v=3;deg=auto;wiring=random" }

// Bandwidth implements Protocol.
func (KT0Exchange) Bandwidth(int) int { return 1 }

// Run implements Protocol.
func (p KT0Exchange) Run(ctx context.Context, g *graph.Graph, seed int64) (*Outcome, error) {
	algo, err := algorithms.NewKT0Exchange(maxDegree(g), bitsFor(g.N()))
	if err != nil {
		return nil, err
	}
	in, err := bcc.NewRandomKT0(bcc.SequentialIDs(g.N()), g, seed)
	if err != nil {
		return nil, err
	}
	return finish(ctx, p.Name(), g, in, algo)
}

// Boruvka wraps algorithms.Boruvka: O(log n) rounds of BCC(3⌈log n⌉+1)
// on arbitrary input graphs.
type Boruvka struct{}

// Name implements Protocol.
func (Boruvka) Name() string { return "boruvka" }

// Key implements Protocol.
func (Boruvka) Key() string { return "protocol=boruvka;v=1;idbits=ceil(log2(n))" }

// Bandwidth implements Protocol.
func (Boruvka) Bandwidth(n int) int { return 3*bitsFor(n) + 1 }

// Run implements Protocol.
func (p Boruvka) Run(ctx context.Context, g *graph.Graph, _ int64) (*Outcome, error) {
	algo, err := algorithms.NewBoruvka(bitsFor(g.N()))
	if err != nil {
		return nil, err
	}
	in, err := kt1Instance(g)
	if err != nil {
		return nil, err
	}
	return finish(ctx, p.Name(), g, in, algo)
}

// Flood wraps algorithms.Flood: the Θ(n/b) full-adjacency baseline the
// logarithmic protocols are measured against.
type Flood struct {
	// B is the per-round bandwidth.
	B int
}

// Name implements Protocol.
func (p Flood) Name() string { return fmt.Sprintf("flood-b%d", p.B) }

// Key implements Protocol.
func (p Flood) Key() string { return fmt.Sprintf("protocol=flood;v=1;b=%d", p.B) }

// Bandwidth implements Protocol.
func (p Flood) Bandwidth(int) int { return p.B }

// Run implements Protocol.
func (p Flood) Run(ctx context.Context, g *graph.Graph, _ int64) (*Outcome, error) {
	algo, err := algorithms.NewFlood(p.B)
	if err != nil {
		return nil, err
	}
	in, err := kt1Instance(g)
	if err != nil {
		return nil, err
	}
	return finish(ctx, p.Name(), g, in, algo)
}

// Sketch wraps sketch.Connectivity: deterministic peeling for graphs of
// arboricity ≤ Arboricity in BCC(31). It is a promise algorithm —
// outside the promise it refuses detectably (verdict NO, every label
// −1), which is exactly what the hard-instance stress grid (E18)
// verifies.
type Sketch struct {
	// Arboricity is the promised arboricity bound.
	Arboricity int
}

// Name implements Protocol.
func (p Sketch) Name() string { return fmt.Sprintf("sketch-a%d", p.Arboricity) }

// Key implements Protocol.
func (p Sketch) Key() string { return fmt.Sprintf("protocol=sketch;v=1;a=%d", p.Arboricity) }

// Bandwidth implements Protocol.
func (p Sketch) Bandwidth(int) int { return 31 }

// Run implements Protocol.
func (p Sketch) Run(ctx context.Context, g *graph.Graph, _ int64) (*Outcome, error) {
	algo, err := sketch.NewConnectivity(p.Arboricity)
	if err != nil {
		return nil, err
	}
	in, err := kt1Instance(g)
	if err != nil {
		return nil, err
	}
	return finish(ctx, p.Name(), g, in, algo)
}
