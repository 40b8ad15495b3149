package bcc

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"sort"
	"sync"

	"bcclique/internal/graph"
)

// Knowledge selects the initial-knowledge variant of the model.
type Knowledge int

const (
	// KT0 is "Knowledge Till 0 hops": ports are numbered arbitrarily and
	// carry no information about the vertex at the other end.
	KT0 Knowledge = iota + 1
	// KT1 is "Knowledge Till 1 hop": every vertex knows all n IDs, and
	// each port is labelled with the ID of the vertex behind it.
	KT1
)

// String implements fmt.Stringer.
func (k Knowledge) String() string {
	switch k {
	case KT0:
		return "KT-0"
	case KT1:
		return "KT-1"
	default:
		return fmt.Sprintf("Knowledge(%d)", int(k))
	}
}

// Instance is a size-n instance of the BCC(b) model: n vertices with unique
// IDs, a clique network whose edges are attached to numbered ports, and an
// input graph over the same vertices. Some clique edges are input edges;
// the rest are pure network edges (Section 1.2).
//
// Vertices are indexed 0..n-1 for simulation bookkeeping; the index is not
// part of any vertex's knowledge. Ports at each vertex are indexed
// 0..n-2.
//
// Two wirings stay implicit, so no O(n²) port tables are materialized
// until a caller needs them. KT-1 instances whose IDs are already
// ascending in vertex-index order (SequentialIDs, and any other sorted
// assignment) use the canonical wiring: port p of vertex v provably
// leads to vertex p (p < v) or p+1 (p ≥ v). Seeded KT-0 instances
// (NewRandomKT0) draw and keep only the ports of their input edges,
// which is all a vertex's view and a bound run read. This is what lets
// large-n sweep cells build instances in O(n + m) time and memory; the
// tables appear lazily, once, for a caller that reads a non-input port
// of a seeded wiring, delivers per-port inboxes, compares, clones or
// rewires.
//
//bccvet:frozen
type Instance struct {
	knowledge Knowledge
	ids       []int
	canonical bool         // implicit ascending-ID KT-1 wiring; ports/portTo nil until rewired
	seeded    *seededPorts // seeded KT-0 wiring's input-edge ports; nil otherwise
	tables    sync.Once    // builds an implicit wiring's ports/portTo (materialize)
	ports     [][]int      // ports[v][p] = vertex index reached from port p of v
	portTo    [][]int      // portTo[v][u] = port of v leading to u; -1 on diagonal
	sortedIDs []int        // ids sorted ascending, shared read-only by KT-1 views
	input     *graph.Graph
}

// seededPorts is what a seeded KT-0 instance keeps of its wiring: the
// ports of the input edges, and the stream that draws the other ports.
// Vertex v's input edges occupy [off[v], off[v+1]) of each array.
type seededPorts struct {
	rest    randv2.PCG // the stream as the input-port draws left it
	off     []int
	nbrPort []int // port of v to its i-th input neighbour, NeighborSlice order
	ports   []int // v's input ports ascending
	nbrs    []int // the vertex behind ports[i]
}

// NewKT1 builds a KT-1 instance over the given IDs and input graph. The
// wiring is canonical: port p of a vertex leads to the vertex with the
// (p+1)-th smallest ID among the other vertices, realizing the model's
// "ports are labelled by IDs".
//
//bccvet:thaws Instance
func NewKT1(ids []int, input *graph.Graph) (*Instance, error) {
	in, err := bareInstance(KT1, ids, input)
	if err != nil {
		return nil, err
	}
	if sort.IntsAreSorted(ids) {
		// Ascending IDs: the canonical wiring is the identity-order
		// formula, so the port tables stay implicit.
		in.canonical = true
		return in, nil
	}
	n := len(ids)
	order := make([]int, n) // vertex indices sorted by ID
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	wiring := make([][]int, n)
	for v := 0; v < n; v++ {
		w := make([]int, 0, n-1)
		for _, u := range order {
			if u != v {
				w = append(w, u)
			}
		}
		wiring[v] = w
	}
	return in.wire(wiring)
}

// NewKT0 builds a KT-0 instance with the given wiring: wiring[v] lists, for
// each port p of v, the vertex index at the other end. Each wiring[v] must
// be a permutation of the other n-1 vertices. Use RandomWiring or
// RotationWiring to produce one.
func NewKT0(ids []int, input *graph.Graph, wiring [][]int) (*Instance, error) {
	in, err := bareInstance(KT0, ids, input)
	if err != nil {
		return nil, err
	}
	return in.wire(wiring)
}

// NewRandomKT0 builds a KT-0 instance over a uniformly random wiring
// drawn from seed, in O(n + m) memory: it draws only the ports of input
// edges and keeps them. One PCG stream gives each vertex's input
// neighbours, in turn, distinct ports uniform over [0, n−1) (a port the
// vertex already gave out is drawn again), so the draws are expected
// O(m) on sparse inputs and O(n log n) for a complete row. The full port
// tables are built from the same stream, continued, on first need (see
// Instance and materialize).
//
//bccvet:thaws Instance
func NewRandomKT0(ids []int, input *graph.Graph, seed int64) (*Instance, error) {
	in, err := bareInstance(KT0, ids, input)
	if err != nil {
		return nil, err
	}
	n := len(ids)
	g := in.input
	s := &seededPorts{rest: *randv2.NewPCG(uint64(seed), 0), off: make([]int, n+1)}
	for v := 0; v < n; v++ {
		s.off[v+1] = s.off[v] + g.Degree(v)
	}
	s.nbrPort, s.ports, s.nbrs = make([]int, s.off[n]), make([]int, s.off[n]), make([]int, s.off[n])
	rng := randv2.New(&s.rest)
	at := make([]int32, n-1) // at[p] = 1 + the row index of the input neighbour at port p; 0 for none
	for v := 0; v < n; v++ {
		lo, hi := s.off[v], s.off[v+1]
		nbrs, pos, ports := g.NeighborSlice(v), s.nbrPort[lo:hi], s.ports[lo:hi]
		for i := range nbrs {
			p := rng.IntN(n - 1)
			for at[p] != 0 { // v gave p out already
				p = rng.IntN(n - 1)
			}
			at[p], pos[i] = int32(i+1), p
		}
		copy(ports, pos)
		sort.Ints(ports)
		for k, p := range ports {
			s.nbrs[lo+k] = nbrs[at[p]-1]
			at[p] = 0
		}
	}
	in.seeded = s
	return in, nil
}

// RandomWiring returns a uniformly random port wiring for n vertices:
// for v = 0..n−1 in turn, the other n−1 vertices in ascending order,
// shuffled by rng.Shuffle.
func RandomWiring(n int, rng *rand.Rand) [][]int {
	wiring := make([][]int, n)
	for v := range wiring {
		w := make([]int, 0, n-1)
		for u := 0; u < n; u++ {
			if u != v {
				w = append(w, u)
			}
		}
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		wiring[v] = w
	}
	return wiring
}

// RotationWiring returns the deterministic wiring where port p of vertex v
// leads to vertex (v+p+1) mod n. Useful for reproducible KT-0 instances.
func RotationWiring(n int) [][]int {
	wiring := make([][]int, n)
	for v := 0; v < n; v++ {
		w := make([]int, n-1)
		for p := 0; p < n-1; p++ {
			w[p] = (v + p + 1) % n
		}
		wiring[v] = w
	}
	return wiring
}

// bareInstance checks the IDs against the input graph and copies both
// into an instance whose wiring the caller sets. The IDs are sorted
// once, into the instance's sortedIDs, where a duplicate sits next to
// its twin.
func bareInstance(k Knowledge, ids []int, input *graph.Graph) (*Instance, error) {
	if input == nil {
		return nil, fmt.Errorf("bcc: nil input graph")
	}
	if len(ids) != input.N() {
		return nil, fmt.Errorf("bcc: %d IDs for input graph on %d vertices", len(ids), input.N())
	}
	if len(ids) < 2 {
		return nil, fmt.Errorf("bcc: need at least 2 vertices, got %d", len(ids))
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("bcc: duplicate ID %d", sorted[i])
		}
	}
	return &Instance{knowledge: k, ids: append([]int(nil), ids...), sortedIDs: sorted, input: input.Clone()}, nil
}

// wire installs a copy of wiring as the port table. Each row must be a
// permutation of the other n−1 vertices.
func (in *Instance) wire(wiring [][]int) (*Instance, error) {
	n := in.N()
	if len(wiring) != n {
		return nil, fmt.Errorf("bcc: wiring for %d vertices, want %d", len(wiring), n)
	}
	ports := make([][]int, n)
	for v := range ports {
		ports[v] = append([]int(nil), wiring[v]...)
	}
	if err := in.setPorts(ports); err != nil {
		return nil, err
	}
	return in, nil
}

// setPorts installs ports as the port table, without copying it, and
// builds its inverse portTo. Each row must be a permutation of the
// other n−1 vertices.
//
//bccvet:thaws Instance
func (in *Instance) setPorts(ports [][]int) error {
	n := in.N()
	in.ports, in.portTo = ports, make([][]int, n)
	for v, row := range ports {
		if len(row) != n-1 {
			return fmt.Errorf("bcc: vertex %d has %d ports, want %d", v, len(row), n-1)
		}
		to := make([]int, n)
		for u := range to {
			to[u] = -1
		}
		for p, u := range row {
			if u < 0 || u >= n || u == v {
				return fmt.Errorf("bcc: vertex %d port %d targets invalid vertex %d", v, p, u)
			}
			if to[u] != -1 {
				return fmt.Errorf("bcc: vertex %d has two ports to vertex %d", v, u)
			}
			to[u] = p
		}
		in.portTo[v] = to
	}
	return nil
}

// SequentialIDs returns the identity ID assignment 0..n-1, handy for
// experiments where IDs are immaterial.
func SequentialIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// N returns the number of vertices.
func (in *Instance) N() int { return len(in.ids) }

// Knowledge returns the instance's knowledge variant.
func (in *Instance) Knowledge() Knowledge { return in.knowledge }

// ID returns the ID of vertex v.
func (in *Instance) ID(v int) int { return in.ids[v] }

// IDs returns a copy of the ID assignment, indexed by vertex.
func (in *Instance) IDs() []int { return append([]int(nil), in.ids...) }

// SortedIDs returns the ascending ID multiset shared by every KT-1
// view of the instance (nil for KT-0 — revealing it would leak
// knowledge the model withholds). The slice is instance-owned and
// read-only; RunBinder implementations use it as the shared universe
// their substrate is indexed by.
func (in *Instance) SortedIDs() []int {
	if in.knowledge != KT1 {
		return nil
	}
	return in.sortedIDs
}

// VertexByID returns the vertex index carrying the given ID, or -1.
func (in *Instance) VertexByID(id int) int {
	for v, x := range in.ids {
		if x == id {
			return v
		}
	}
	return -1
}

// Input returns the input graph. The returned graph is owned by the
// instance and must not be mutated by callers; use AddInputEdge and
// RemoveInputEdge to modify it.
func (in *Instance) Input() *graph.Graph { return in.input }

// NeighborAt returns the vertex index at the far end of port p of v. A
// seeded wiring answers an input port from its kept ports and builds
// its tables for any other.
func (in *Instance) NeighborAt(v, p int) int {
	if in.canonical {
		if p < v {
			return p
		}
		return p + 1
	}
	if s := in.seeded; s != nil {
		ports := s.ports[s.off[v]:s.off[v+1]]
		if i := sort.SearchInts(ports, p); i < len(ports) && ports[i] == p {
			return s.nbrs[s.off[v]+i]
		}
	}
	in.materialize()
	return in.ports[v][p]
}

// PortOf returns the port of v whose far end is u (-1 if u == v). A
// seeded wiring answers an input neighbour from its kept ports and
// builds its tables for any other vertex.
func (in *Instance) PortOf(v, u int) int {
	if in.canonical {
		switch {
		case u == v:
			return -1
		case u < v:
			return u
		default:
			return u - 1
		}
	}
	if s := in.seeded; s != nil {
		nbrs := in.input.NeighborSlice(v)
		if i := sort.SearchInts(nbrs, u); i < len(nbrs) && nbrs[i] == u {
			return s.nbrPort[s.off[v]+i]
		}
	}
	in.materialize()
	return in.portTo[v][u]
}

// InputPorts returns the sorted port numbers of v that carry input edges.
// It walks v's input neighbours directly — O(deg(v) log deg(v)) — rather
// than probing every one of the n−1 ports with an edge lookup; a seeded
// wiring copies its kept ports.
func (in *Instance) InputPorts(v int) []int {
	if s := in.seeded; s != nil {
		return append([]int(nil), s.ports[s.off[v]:s.off[v+1]]...)
	}
	nbrs := in.input.NeighborSlice(v)
	if len(nbrs) == 0 {
		return nil
	}
	ports := make([]int, len(nbrs))
	for i, u := range nbrs {
		ports[i] = in.PortOf(v, u)
	}
	if !in.canonical {
		// The canonical port map is monotone in the neighbour index, so
		// only materialized wirings need the sort.
		sort.Ints(ports)
	}
	return ports
}

// materialize builds the explicit port tables of an implicit wiring,
// once: the canonical formula's, so rewiring primitives can mutate
// them, or a seeded wiring's. Instances are shared read-only across
// goroutines, and a seeded wiring builds its tables on a reader's first
// need, hence the sync.Once. Only a rewiring materializes a canonical
// wiring, so no reader races its flag.
//
//bccvet:thaws Instance
func (in *Instance) materialize() {
	in.tables.Do(func() {
		n := in.N()
		var ports [][]int
		switch {
		case in.canonical:
			ports = make([][]int, n)
			for v := range ports {
				ports[v] = make([]int, n-1)
				for p := range ports[v] {
					ports[v][p] = in.NeighborAt(v, p)
				}
			}
			in.canonical = false
		case in.seeded != nil:
			ports = in.seeded.wiring(in.input)
		default:
			return
		}
		if err := in.setPorts(ports); err != nil {
			panic(err) // a permutation by construction
		}
	})
}

// wiring builds a seeded instance's full port table over its input g.
// Each row keeps its input ports and shuffles the other n−1−d vertices
// into its free ports, drawing from a copy of rest, so each row is
// uniform over the (n−1)! orders and two builds agree.
func (s *seededPorts) wiring(g *graph.Graph) [][]int {
	n := g.N()
	src := s.rest
	rng := randv2.New(&src)
	ports, rest := make([][]int, n), make([]int, 0, n-1)
	for v := range ports {
		row := make([]int, n-1)
		for p := range row {
			row[p] = -1
		}
		for k := s.off[v]; k < s.off[v+1]; k++ {
			row[s.ports[k]] = s.nbrs[k]
		}
		rest = rest[:0]
		nbrs := g.NeighborSlice(v)
		for u := 0; u < n; u++ {
			if len(nbrs) > 0 && nbrs[0] == u {
				nbrs = nbrs[1:]
			} else if u != v {
				rest = append(rest, u)
			}
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		i := 0
		for p := range row {
			if row[p] < 0 {
				row[p] = rest[i]
				i++
			}
		}
		ports[v] = row
	}
	return ports
}

// unseed builds a seeded wiring's tables and drops its kept ports,
// which a mutation of the input or the wiring would leave stale.
//
//bccvet:thaws Instance
func (in *Instance) unseed() {
	if in.seeded != nil {
		in.materialize()
		in.seeded = nil
	}
}

// SwapPortTargets exchanges the far endpoints of ports pA and pB at vertex
// v, keeping port numbers fixed. This is the rewiring primitive underlying
// port-preserving crossings (Definition 3.3).
//
//bccvet:thaws Instance
func (in *Instance) SwapPortTargets(v, pA, pB int) error {
	if v < 0 || v >= in.N() {
		return fmt.Errorf("bcc: vertex %d out of range", v)
	}
	if pA < 0 || pB < 0 || pA >= in.N()-1 || pB >= in.N()-1 {
		return fmt.Errorf("bcc: ports %d,%d out of range at vertex %d", pA, pB, v)
	}
	in.materialize()
	in.seeded = nil
	a, b := in.ports[v][pA], in.ports[v][pB]
	in.ports[v][pA], in.ports[v][pB] = b, a
	in.portTo[v][a], in.portTo[v][b] = pB, pA
	return nil
}

// AddInputEdge marks the clique edge {u, v} as an input edge.
func (in *Instance) AddInputEdge(u, v int) error {
	in.unseed()
	return in.input.AddEdge(u, v)
}

// RemoveInputEdge unmarks the input edge {u, v}.
func (in *Instance) RemoveInputEdge(u, v int) error {
	in.unseed()
	return in.input.RemoveEdge(u, v)
}

// Clone returns a deep copy of the instance. Implicit canonical wirings
// stay implicit; a seeded wiring is cloned as its tables.
//
//bccvet:thaws Instance
func (in *Instance) Clone() *Instance {
	if in.seeded != nil {
		in.materialize()
	}
	n := in.N()
	c := &Instance{
		knowledge: in.knowledge,
		ids:       append([]int(nil), in.ids...),
		canonical: in.canonical,
		sortedIDs: append([]int(nil), in.sortedIDs...),
		input:     in.input.Clone(),
	}
	if !in.canonical {
		c.ports = make([][]int, n)
		c.portTo = make([][]int, n)
		for v := 0; v < n; v++ {
			c.ports[v] = append([]int(nil), in.ports[v]...)
			c.portTo[v] = append([]int(nil), in.portTo[v]...)
		}
	}
	return c
}

// Equal reports whether two instances are identical: same knowledge
// variant, IDs, port wiring, and input graph. This is the instance
// identity used when checking that crossing is an involution. Wiring is
// compared through NeighborAt, so an implicit canonical wiring equals
// its materialized expansion, and a seeded wiring builds its tables.
func (in *Instance) Equal(other *Instance) bool {
	if other == nil || in.knowledge != other.knowledge || in.N() != other.N() {
		return false
	}
	n := in.N()
	for v := range in.ids {
		if in.ids[v] != other.ids[v] {
			return false
		}
		for p := 0; p < n-1; p++ {
			if in.NeighborAt(v, p) != other.NeighborAt(v, p) {
				return false
			}
		}
	}
	return in.input.Equal(other.input)
}

// View is the initial knowledge of one vertex (Section 1.2). KT-0 views
// carry only the vertex's own ID, its port count, and which ports are input
// edges. KT-1 views additionally carry all n IDs and the ID behind every
// port.
type View struct {
	Knowledge  Knowledge
	N          int   // number of vertices in the network
	ID         int   // this vertex's ID
	NumPorts   int   // always N-1
	InputPorts []int // sorted ports carrying input edges
	// AllIDs lists all n IDs, sorted ascending (KT-1 only; nil in KT-0).
	// The slice is shared between every view of one instance: treat it
	// as read-only.
	AllIDs []int
	// in/vertex back the lazy PortID lookup (KT-1 only; in is nil in
	// KT-0, so a KT-0 caller misusing PortID fails loudly).
	in     *Instance
	vertex int
}

// PortID returns the ID behind port p — the per-port counterpart of
// AllIDs, and KT-1 only (check HasPortIDs first if in doubt). It is
// computed from the instance wiring on demand: views carry no
// materialized (n−1)-slot slice, which keeps constructing all n views
// of a run O(n + Σdeg) instead of Θ(n²).
func (v View) PortID(p int) int { return v.in.ids[v.in.NeighborAt(v.vertex, p)] }

// HasPortIDs reports whether PortID is available, i.e. whether this is
// a KT-1 view.
func (v View) HasPortIDs() bool { return v.in != nil }

// View returns the initial knowledge of vertex v.
func (in *Instance) View(v int) View {
	view := View{
		Knowledge:  in.knowledge,
		N:          in.N(),
		ID:         in.ids[v],
		NumPorts:   in.N() - 1,
		InputPorts: in.InputPorts(v),
	}
	if in.knowledge == KT1 {
		view.AllIDs = in.sortedIDs
		view.in = in
		view.vertex = v
	}
	return view
}

// Equal reports whether two views represent identical initial knowledge.
// Indistinguishability arguments (Lemma 3.4) require views to coincide at
// round 0.
func (v View) Equal(w View) bool {
	if v.Knowledge != w.Knowledge || v.N != w.N || v.ID != w.ID || v.NumPorts != w.NumPorts {
		return false
	}
	if !slices.Equal(v.InputPorts, w.InputPorts) || !slices.Equal(v.AllIDs, w.AllIDs) {
		return false
	}
	if v.HasPortIDs() != w.HasPortIDs() {
		return false
	}
	if v.HasPortIDs() {
		for p := 0; p < v.NumPorts; p++ {
			if v.PortID(p) != w.PortID(p) {
				return false
			}
		}
	}
	return true
}
