// Package crossing implements the port-preserving edge crossings of
// Definition 3.3 (Figure 1 of the paper) together with the supporting
// machinery of the KT-0 lower bound: independence of edge pairs
// (Definition 3.2), consistent cycle orientations, active edges with
// respect to broadcast sequences x, y ∈ {0,1,⊥}^t, and the executable form
// of Lemma 3.4 (crossing preserves t-round indistinguishability when the
// crossed endpoints broadcast matching sequences).
package crossing

import (
	"fmt"
	"slices"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// DirectedEdge is an input-graph edge with an orientation v → u. The
// orientation disambiguates which two new edges a crossing creates:
// crossing (v1,u1) with (v2,u2) yields (v1,u2) and (v2,u1).
type DirectedEdge struct {
	V, U int
}

// Reverse returns the same edge with the opposite orientation.
func (e DirectedEdge) Reverse() DirectedEdge { return DirectedEdge{V: e.U, U: e.V} }

// String implements fmt.Stringer.
func (e DirectedEdge) String() string { return fmt.Sprintf("(%d→%d)", e.V, e.U) }

// Independent reports whether e1 and e2 are independent in the input graph
// g per Definition 3.2: the four endpoints are distinct and neither
// (v1,u2) nor (v2,u1) is an input edge.
func Independent(g *graph.Graph, e1, e2 DirectedEdge) bool {
	v1, u1, v2, u2 := e1.V, e1.U, e2.V, e2.U
	if v1 == v2 || v1 == u2 || u1 == v2 || u1 == u2 {
		return false
	}
	return !g.HasEdge(v1, u2) && !g.HasEdge(v2, u1)
}

// Cross returns the crossed instance I(e1, e2) of Definition 3.3: a new
// instance in which the input edges e1 = (v1,u1) and e2 = (v2,u2) are
// replaced by (v1,u2) and (v2,u1), with ports rewired so that every
// vertex's set of input ports — and hence its entire initial view — is
// unchanged. The original instance is not modified.
//
// It returns an error unless e1 and e2 are independent input edges.
func Cross(in *bcc.Instance, e1, e2 DirectedEdge) (*bcc.Instance, error) {
	g := in.Input()
	if !g.HasEdge(e1.V, e1.U) {
		return nil, fmt.Errorf("crossing: %v is not an input edge", e1)
	}
	if !g.HasEdge(e2.V, e2.U) {
		return nil, fmt.Errorf("crossing: %v is not an input edge", e2)
	}
	if !Independent(g, e1, e2) {
		return nil, fmt.Errorf("crossing: %v and %v are not independent", e1, e2)
	}
	v1, u1, v2, u2 := e1.V, e1.U, e2.V, e2.U

	out := in.Clone()
	// Port rewiring per Definition 3.3 / Figure 1. Writing p(x→y) for the
	// port of x leading to y: at v1 the targets of p(v1→u1) and p(v1→u2)
	// swap, and symmetrically at u1, v2, u2. Port numbers never move, so
	// input ports stay input ports.
	swaps := [][3]int{
		{v1, out.PortOf(v1, u1), out.PortOf(v1, u2)},
		{u1, out.PortOf(u1, v1), out.PortOf(u1, v2)},
		{v2, out.PortOf(v2, u2), out.PortOf(v2, u1)},
		{u2, out.PortOf(u2, v2), out.PortOf(u2, v1)},
	}
	for _, s := range swaps {
		if err := out.SwapPortTargets(s[0], s[1], s[2]); err != nil {
			return nil, fmt.Errorf("crossing: rewiring: %w", err)
		}
	}
	for _, op := range []struct {
		remove bool
		a, b   int
	}{
		{remove: true, a: v1, b: u1},
		{remove: true, a: v2, b: u2},
		{remove: false, a: v1, b: u2},
		{remove: false, a: v2, b: u1},
	} {
		var err error
		if op.remove {
			err = out.RemoveInputEdge(op.a, op.b)
		} else {
			err = out.AddInputEdge(op.a, op.b)
		}
		if err != nil {
			return nil, fmt.Errorf("crossing: input update: %w", err)
		}
	}
	return out, nil
}

// CrossGraph applies a crossing at the input-graph level: it replaces the
// edges (v1,u1) and (v2,u2) of g with (v1,u2) and (v2,u1), returning a new
// graph. This is the quotient of Cross used by the indistinguishability
// graph (Definition 3.6), where instances are identified by their input
// graphs because the port rewiring of Definition 3.3 preserves every
// vertex's view.
func CrossGraph(g *graph.Graph, e1, e2 DirectedEdge) (*graph.Graph, error) {
	if !g.HasEdge(e1.V, e1.U) || !g.HasEdge(e2.V, e2.U) {
		return nil, fmt.Errorf("crossing: %v or %v is not an edge", e1, e2)
	}
	if !Independent(g, e1, e2) {
		return nil, fmt.Errorf("crossing: %v and %v are not independent", e1, e2)
	}
	out := g.Clone()
	if err := out.RemoveEdge(e1.V, e1.U); err != nil {
		return nil, err
	}
	if err := out.RemoveEdge(e2.V, e2.U); err != nil {
		return nil, err
	}
	if err := out.AddEdge(e1.V, e2.U); err != nil {
		return nil, err
	}
	if err := out.AddEdge(e2.V, e1.U); err != nil {
		return nil, err
	}
	return out, nil
}

// CrossedPair returns the two directed edges created by crossing e1 and e2
// — (v1,u2) and (v2,u1) — which, crossed in the result instance, undo the
// crossing (the involution used throughout Section 3.1).
func CrossedPair(e1, e2 DirectedEdge) (DirectedEdge, DirectedEdge) {
	return DirectedEdge{V: e1.V, U: e2.U}, DirectedEdge{V: e2.V, U: e1.U}
}

// OrientCycles returns all edges of a 2-regular input graph with a
// consistent orientation along each cycle (the paper's "clockwise"
// convention): each cycle is traversed from its minimum vertex toward that
// vertex's smaller neighbour.
func OrientCycles(g *graph.Graph) ([]DirectedEdge, error) {
	cycles, ok := g.CycleDecomposition()
	if !ok {
		return nil, fmt.Errorf("crossing: input graph is not 2-regular")
	}
	var edges []DirectedEdge
	for _, c := range cycles {
		for i := range c {
			edges = append(edges, DirectedEdge{V: c[i], U: c[(i+1)%len(c)]})
		}
	}
	return edges, nil
}

// ActiveEdges returns the consistently oriented input edges (v, u) whose
// endpoints broadcast exactly the trit sequences x and y. It is the
// string-label convenience form of ActiveEdgesKeys.
func ActiveEdges(g *graph.Graph, sentLabels []string, x, y string) ([]DirectedEdge, error) {
	keys, err := bcc.ParseKeys(sentLabels)
	if err != nil {
		return nil, err
	}
	xKey, err := bcc.ParseKey(x)
	if err != nil {
		return nil, err
	}
	yKey, err := bcc.ParseKey(y)
	if err != nil {
		return nil, err
	}
	return ActiveEdgesKeys(g, keys, xKey, yKey)
}

// ActiveEdgesKeys returns the consistently oriented input edges (v, u)
// whose endpoints broadcast exactly the packed sequences x and y: v's
// transcript equals x and u's equals y. These are the "active" edges of
// Definition 3.6, compared key-by-key as word compares on the
// indistinguishability-graph hot path.
func ActiveEdgesKeys(g *graph.Graph, keys []bcc.TranscriptKey, x, y bcc.TranscriptKey) ([]DirectedEdge, error) {
	oriented, err := OrientCycles(g)
	if err != nil {
		return nil, err
	}
	var active []DirectedEdge
	for _, e := range oriented {
		if keys[e.V] == x && keys[e.U] == y {
			active = append(active, e)
		}
	}
	return active, nil
}

// EdgeKey is the packed (x, y) transcript pair of a directed edge as a
// comparable value, usable as a map key when bucketing edges by label
// without building concatenated strings.
type EdgeKey [2]bcc.TranscriptKey

// EdgeKeyOf returns the packed label pair of edge e under the per-vertex
// transcript keys.
func EdgeKeyOf(e DirectedEdge, keys []bcc.TranscriptKey) EdgeKey {
	return EdgeKey{keys[e.V], keys[e.U]}
}

// DominantLabelPair returns the pair (x, y) maximizing the number of
// active edges in the oriented input graph, together with that count.
// This is the (x, y) the proof of Theorem 3.1 selects by pigeonhole.
func DominantLabelPair(g *graph.Graph, sentLabels []string) (x, y string, count int, err error) {
	oriented, err := OrientCycles(g)
	if err != nil {
		return "", "", 0, err
	}
	type pair struct{ x, y string }
	counts := make(map[pair]int)
	for _, e := range oriented {
		counts[pair{sentLabels[e.V], sentLabels[e.U]}]++
	}
	for p, c := range counts {
		if c > count {
			x, y, count = p.x, p.y, c
		}
	}
	return x, y, count, nil
}

// IndependentSubset greedily selects a pairwise-independent subset of the
// given directed edges. On an n-cycle it finds ⌊n/3⌋ edges (taking every
// third edge), matching the set S of Theorem 3.5's hard distribution.
func IndependentSubset(g *graph.Graph, edges []DirectedEdge) []DirectedEdge {
	var chosen []DirectedEdge
	for _, e := range edges {
		ok := true
		for _, c := range chosen {
			if !Independent(g, e, c) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, e)
		}
	}
	return chosen
}

// VerifyIndistinguishable runs t rounds of algo on both instances (same
// public coin) and reports whether every vertex ends with identical state:
// identical initial view, identical sent sequence, and identical per-port
// received sequences. This is the conclusion of Lemma 3.4. In BCC what v
// hears on port p is exactly what the vertex behind p broadcast, so the
// received sequences are compared as the Sent sequences of the vertices
// behind each port: i1.NeighborAt(v, p) in the first run, and
// i2.NeighborAt(v, p) in the second.
func VerifyIndistinguishable(i1, i2 *bcc.Instance, algo bcc.Algorithm, t int, coin *bcc.Coin) (bool, error) {
	n := i1.N()
	if n != i2.N() {
		return false, nil
	}
	r1, err := bcc.Run(i1, algo, bcc.WithRounds(t), bcc.WithCoin(coin))
	if err != nil {
		return false, fmt.Errorf("crossing: run on first instance: %w", err)
	}
	r2, err := bcc.Run(i2, algo, bcc.WithRounds(t), bcc.WithCoin(coin))
	if err != nil {
		return false, fmt.Errorf("crossing: run on second instance: %w", err)
	}
	sent1, sent2 := r1.Transcripts, r2.Transcripts
	for v := 0; v < n; v++ {
		if !i1.View(v).Equal(i2.View(v)) || !slices.Equal(sent1[v].Sent, sent2[v].Sent) {
			return false, nil
		}
		for p := 0; p < n-1; p++ {
			if !slices.Equal(sent1[i1.NeighborAt(v, p)].Sent, sent2[i2.NeighborAt(v, p)].Sent) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Lemma34Holds checks the hypothesis and conclusion of Lemma 3.4 for a
// specific crossing: if, over the first t rounds of algo on instance in,
// v1 and v2 broadcast the same sequence and u1 and u2 broadcast the same
// sequence, then in and Cross(in, e1, e2) must be indistinguishable after
// t rounds. It returns (hypothesisHolds, conclusionHolds, error);
// conclusionHolds is meaningful only when the hypothesis holds.
func Lemma34Holds(in *bcc.Instance, e1, e2 DirectedEdge, algo bcc.Algorithm, t int, coin *bcc.Coin) (hypothesis, conclusion bool, err error) {
	res, err := bcc.Run(in, algo, bcc.WithRounds(t), bcc.WithCoin(coin))
	if err != nil {
		return false, false, err
	}
	labels, err := bcc.SentTritLabels(res)
	if err != nil {
		return false, false, err
	}
	hypothesis = labels[e1.V] == labels[e2.V] && labels[e1.U] == labels[e2.U]
	if !hypothesis {
		return false, false, nil
	}
	crossed, err := Cross(in, e1, e2)
	if err != nil {
		return true, false, err
	}
	conclusion, err = VerifyIndistinguishable(in, crossed, algo, t, coin)
	return true, conclusion, err
}
