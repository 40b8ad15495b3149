package reduction

import (
	"fmt"
	"math/bits"
	"slices"

	"bcclique/internal/bcc"
	"bcclique/internal/partition"
)

// SimResult reports a Theorem 4.4 simulation: an r-round KT-1 BCC(b)
// algorithm executed jointly by Alice (hosting A ∪ L) and Bob (hosting
// R ∪ B), with every cross-party bit metered.
type SimResult struct {
	// Rounds is the number of BCC rounds simulated.
	Rounds int
	// WireBits is the total number of bits exchanged between Alice and
	// Bob: per round, each party encodes each hosted vertex's broadcast
	// (payload plus a length field so ⊥ and short messages are
	// self-delimiting).
	WireBits int
	// SymbolsPerRoundPerParty is the paper's 2n: broadcast symbols each
	// party ships per round.
	SymbolsPerRoundPerParty int
	// BitsPerSymbol is the wire width of one symbol (2 for b = 1,
	// matching {0,1,⊥}).
	BitsPerSymbol int
	// HasVerdict/Verdict and Labels mirror bcc.Result.
	HasVerdict bool
	Verdict    bcc.Verdict
	Labels     []int
	// MatchesDirect reports whether the simulated transcripts and
	// outputs coincide with a direct (single-machine) run — the
	// correctness claim of the Section 4.3 simulation argument.
	MatchesDirect bool
}

// Simulate builds the reduction graph for (pa, pb), hosts its vertices on
// Alice and Bob per Section 4.3, and simulates the KT-1 algorithm,
// metering every bit that crosses the Alice/Bob cut. With pairing inputs
// it uses the 2-regular MultiCycle construction; otherwise the general
// one.
func Simulate(algo bcc.Algorithm, pa, pb partition.Partition) (*SimResult, error) {
	build := BuildGeneral
	if pa.IsPairing() && pb.IsPairing() {
		build = BuildPairing
	}
	g, ly, err := build(pa, pb)
	if err != nil {
		return nil, err
	}
	in, err := bcc.NewKT1(ly.IDs(), g)
	if err != nil {
		return nil, err
	}
	return simulateSplit(algo, in, ly)
}

// bareNodes hides an algorithm's RunBinder, so the runner drives one
// bare node per vertex through its per-port inbox, as each party drives
// its hosted vertices in the Section 4.3 simulation.
type bareNodes struct{ bcc.Algorithm }

// simulateSplit runs the algorithm with nodes partitioned across the
// Alice/Bob cut defined by the layout, meters the per-round broadcast
// vectors the parties exchange, and cross-checks against a direct run.
func simulateSplit(algo bcc.Algorithm, in *bcc.Instance, ly Layout) (*SimResult, error) {
	sim, err := bcc.Run(in, bareNodes{algo})
	if err != nil {
		return nil, fmt.Errorf("reduction: simulated run: %w", err)
	}
	n := in.N()
	alice := 0
	for v := 0; v < n; v++ {
		if ly.AliceHosts(v) {
			alice++
		}
	}
	// Each round, each party ships its hosted vertices' broadcasts in
	// increasing order of ID (Section 4.3), so the receiver knows the
	// sender of each symbol by position; every symbol is a b-bit payload
	// plus a ⌈log₂(b+1)⌉-bit length field.
	b := algo.Bandwidth()
	perSymbol := b + bits.Len(uint(b))
	res := &SimResult{
		Rounds:                  sim.Rounds,
		WireBits:                sim.Rounds * n * perSymbol,
		SymbolsPerRoundPerParty: max(alice, n-alice),
		BitsPerSymbol:           perSymbol,
		HasVerdict:              sim.HasVerdict,
		Verdict:                 sim.Verdict,
		Labels:                  sim.Labels,
	}

	// Cross-check against a direct run.
	direct, err := bcc.Run(in, algo)
	if err != nil {
		return nil, fmt.Errorf("reduction: direct run: %w", err)
	}
	res.MatchesDirect = direct.Rounds == res.Rounds &&
		direct.HasVerdict == res.HasVerdict &&
		(!res.HasVerdict || direct.Verdict == res.Verdict)
	for v := 0; v < n && res.MatchesDirect; v++ {
		res.MatchesDirect = slices.Equal(direct.Transcripts[v].Sent, sim.Transcripts[v].Sent)
	}
	if res.MatchesDirect && res.Labels != nil && direct.Labels != nil {
		res.MatchesDirect = slices.Equal(res.Labels, direct.Labels)
	}
	return res, nil
}
