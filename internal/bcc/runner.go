package bcc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
)

// intsPool recycles the per-run []int allocations whose ownership
// transfers into the Result — the RoundBits cost series and the
// verdict/label scratch. At n = 4096 a single flood run's RoundBits is
// a 4095-int slice; across the thousands of runs of a sweep grid that
// is pure allocator churn unless callers that discard their Results
// hand the slices back via Recycle.
var intsPool = sync.Pool{New: func() interface{} { return new([]int) }}

// takeInts returns a length-n []int from the pool (contents arbitrary;
// every caller fully overwrites it before any read).
func takeInts(n int) []int {
	p := intsPool.Get().(*[]int)
	s := *p
	if cap(s) < n {
		s = make([]int, n)
	}
	*p = nil
	intsPool.Put(p)
	return s[:n]
}

func recycleInts(s []int) {
	if cap(s) == 0 {
		return
	}
	p := intsPool.Get().(*[]int)
	*p = s[:0]
	intsPool.Put(p)
}

// Recycle returns a Result's pooled backing slices (RoundBits, Labels)
// for reuse by future runs and nils the fields. Call it only when the
// Result — and everything that aliased those slices — is dead; hot
// loops that run thousands of discarded simulations (EstimateError,
// the equivalence suite) use it to keep the per-run cost series off
// the allocator.
func Recycle(res *Result) {
	if res == nil {
		return
	}
	recycleInts(res.RoundBits)
	res.RoundBits = nil
	recycleInts(res.Labels)
	res.Labels = nil
}

// Verdict is a vertex's (or the system's) answer to a decision problem.
type Verdict int

const (
	// VerdictNo rejects (e.g. "disconnected").
	VerdictNo Verdict = iota + 1
	// VerdictYes accepts (e.g. "connected").
	VerdictYes
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNo:
		return "NO"
	case VerdictYes:
		return "YES"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Algorithm is a BCC(b) algorithm: a factory of per-vertex state machines
// plus its bandwidth and round schedule.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Bandwidth returns the per-round bit budget b the algorithm needs.
	Bandwidth() int
	// Rounds returns the number of rounds the algorithm runs on size-n
	// instances.
	Rounds(n int) int
	// NewNode creates the state machine for a vertex with the given
	// initial knowledge. All vertices share the same public coin.
	NewNode(view View, coin *Coin) Node
}

// Node is the per-vertex state machine. In each round t = 1, 2, ... the
// runner first calls Send(t) on every node, then delivers all broadcasts
// via Receive(t, inbox), where inbox[p] holds the message heard on port p
// — except in a bound run, which hears the round itself (see BoundRun),
// and on the bit plane, where the bound run also writes the round
// itself (see BitRun). The inbox slice is reused between rounds; nodes
// must copy anything they retain.
type Node interface {
	Send(round int) Message
	Receive(round int, inbox []Message)
}

// RunBinder is an optional Algorithm interface for shared-substrate
// protocols. When implemented, the runner calls BindRun once per run —
// after the round count is resolved, before any node is built — and
// builds the run's nodes from the returned BoundRun. The bound run
// typically carries run-shared state (a frozen instance substrate plus
// the broadcast mirror every replica would otherwise replicate), so n
// replicas shrink to compact per-replica residue.
//
// A 1-bit bound run rides the bit plane when it implements BitRun and
// accepts BindPlane; it then writes and hears each round's plane words
// itself, and the runner calls none of its nodes in the round loop.
type RunBinder interface {
	BindRun(in *Instance, rounds int) BoundRun
}

// BoundRun is the per-run algorithm BindRun returns. In BCC every
// vertex hears the same broadcast vector, so the run hears each round
// once on behalf of all its nodes, and the runner never delivers to
// the nodes themselves. After round t's sends the runner calls
// Hear(t, sends) exactly once, on its own goroutine, with the round's
// broadcasts indexed by vertex (every vertex's own entry included); the
// slice is runner-owned and reused between rounds, so the run must not
// retain it. On the bit plane the run writes and hears each round
// through BitRun instead. ReleaseRun is called once the run's outputs
// have been extracted, so the run can hand pooled arenas back for the
// next run.
type BoundRun interface {
	Algorithm
	Hear(round int, sends []Message)
	ReleaseRun()
}

// Decider is implemented by nodes solving decision problems such as
// Connectivity, TwoCycle and MultiCycle. Per Section 1.2, the system
// outputs YES iff every vertex outputs YES.
type Decider interface {
	Decide() Verdict
}

// Labeler is implemented by nodes solving ConnectedComponents: each vertex
// outputs the label of the connected component it belongs to.
type Labeler interface {
	Label() int
}

// Transcript records what one vertex sent, and (optionally) received, over
// the run. Together with the vertex's initial view this is the "state" used
// in indistinguishability arguments.
type Transcript struct {
	Sent     []Message   // Sent[t-1] is the round-t broadcast
	Received [][]Message // Received[t-1][p]; nil unless requested
}

// Result is the outcome of running an algorithm on an instance.
type Result struct {
	Rounds     int
	HasVerdict bool
	Verdict    Verdict // meaningful only if HasVerdict
	Labels     []int   // per-vertex labels; nil unless all nodes are Labelers
	TotalBits  int     // total bits broadcast over the whole run
	// RoundBits[t-1] is the number of bits all vertices broadcast in
	// round t — the per-round cost transcript, always recorded (it is
	// O(rounds), independent of n).
	RoundBits []int
	// Transcripts holds the per-vertex Sent (and optionally Received)
	// message sequences; nil under WithoutTranscripts.
	Transcripts []Transcript
	// BitPlane reports whether the run was served by the word-packed
	// 1-bit fast path (see bitplane.go) instead of the generic Message
	// vector. Both paths are pinned byte-identical by the equivalence
	// suite; the flag exists for observability and for tests asserting
	// the fast path actually engaged.
	BitPlane bool
	// trits is the packed 2-bit trit arena of a transcript-recording
	// bit-plane run; SentTritLabels/SentTritKeys derive trit strings
	// and keys directly from it.
	trits *tritPlane
}

// SentSequence returns the broadcast sequence of vertex v.
func (r *Result) SentSequence(v int) []Message { return r.Transcripts[v].Sent }

// options configures Run.
type options struct {
	ctx            context.Context
	coin           *Coin
	rounds         int // -1: use the algorithm's schedule
	recordReceived bool
	noTranscripts  bool
	noBitPlane     bool
}

// Option configures Run.
type Option interface {
	apply(*options)
}

type coinOption struct{ coin *Coin }

func (o coinOption) apply(opts *options) { opts.coin = o.coin }

// WithCoin runs the algorithm with the given public coin.
func WithCoin(c *Coin) Option { return coinOption{coin: c} }

type roundsOption int

func (o roundsOption) apply(opts *options) { opts.rounds = int(o) }

// WithRounds overrides the algorithm's round schedule, truncating or
// extending the run to exactly r rounds. Lower-bound experiments use this
// to observe the first t rounds of an algorithm.
func WithRounds(r int) Option { return roundsOption(r) }

type recordReceivedOption struct{}

func (recordReceivedOption) apply(opts *options) { opts.recordReceived = true }

// WithReceivedTranscripts records per-port received messages in the result
// transcripts (O(n²·t) memory).
func WithReceivedTranscripts() Option { return recordReceivedOption{} }

type noTranscriptsOption struct{}

func (noTranscriptsOption) apply(opts *options) { opts.noTranscripts = true }

// WithoutTranscripts runs without recording any per-vertex message
// transcripts: Result.Transcripts is nil and only the O(rounds)
// RoundBits cost series (plus verdict/labels) is retained. This is the
// memory-bounded mode the sweep grids use at large n, where a Sent
// arena alone would be Θ(n·rounds) — 268 MB for flood-b1 at n = 4096.
// It conflicts with WithReceivedTranscripts.
func WithoutTranscripts() Option { return noTranscriptsOption{} }

type noBitPlaneOption struct{}

func (noBitPlaneOption) apply(opts *options) { opts.noBitPlane = true }

// WithoutBitPlane forces the generic Message path even for algorithms
// whose nodes could ride the word-packed bit plane. The generic path
// is the equivalence oracle: the bit-plane test suite and the
// before/after benchmarks run the same algorithm down both paths.
func WithoutBitPlane() Option { return noBitPlaneOption{} }

// Run executes the algorithm on the instance and returns the result.
// Sent transcripts are always recorded (they are the labels that drive the
// crossing machinery); received transcripts only on request.
func Run(in *Instance, algo Algorithm, opts ...Option) (*Result, error) {
	return RunContext(context.Background(), in, algo, opts...)
}

// RunContext is Run with cancellation: the round loop checks the context
// at every round boundary, whichever medium (the generic Message vector
// or the word-packed bit plane) serves the run, so a disconnected client
// or a shutdown signal stops a long simulation within one round instead
// of burning CPU to the schedule's end. A cancelled run returns ctx's
// error and no Result — partial transcripts are never surfaced, so
// cancellation can never be mistaken for (or cached as) a computed
// outcome.
func RunContext(ctx context.Context, in *Instance, algo Algorithm, opts ...Option) (*Result, error) {
	o := options{ctx: ctx, rounds: -1}
	for _, opt := range opts {
		opt.apply(&o)
	}
	n := in.N()
	b := algo.Bandwidth()
	if b < 1 || b > MaxBandwidth {
		return nil, fmt.Errorf("bcc: algorithm %q has bandwidth %d outside [1,%d]", algo.Name(), b, MaxBandwidth)
	}
	rounds := o.rounds
	if rounds < 0 {
		rounds = algo.Rounds(n)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("bcc: algorithm %q returned negative round count %d", algo.Name(), rounds)
	}

	if o.noTranscripts && o.recordReceived {
		return nil, fmt.Errorf("bcc: WithoutTranscripts conflicts with WithReceivedTranscripts")
	}

	// span is the enclosing per-run span ("run" in the sweep tree) when
	// the caller traces; with tracing off it is nil and every phase hook
	// below degrades to a nil check. Phase spans are created per run —
	// never per round — so the hot loop stays allocation-free.
	span := obs.FromContext(ctx)

	// Shared-substrate algorithms bind once per run; the bound run owns
	// the run's shared state, is what nodes are built from, and hears
	// every round.
	bindSpan := span.Child("bind")
	runAlgo := algo
	var run BoundRun
	if rb, ok := algo.(RunBinder); ok {
		run = rb.BindRun(in, rounds)
		runAlgo = run
		defer run.ReleaseRun()
	}

	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = runAlgo.NewNode(in.View(v), o.coin)
	}
	bindSpan.SetStr("algorithm", runAlgo.Name())
	bindSpan.SetNum("n", float64(n))
	if run != nil {
		bindSpan.SetNum("bound", 1)
	}
	bindSpan.End()

	// RoundBits comes out of the recycling pool (see Recycle): the loop
	// writes every slot, so stale pool contents are inert.
	res := &Result{Rounds: rounds, RoundBits: takeInts(rounds)}

	// The medium carries the run's broadcasts: each round it collects
	// every vertex's send, then the round is heard.
	m := bindMedium(in, run, nodes, b, res, o)
	defer m.release()

	roundsSpan := span.Child("rounds")
	var err error
	for t := 1; t <= rounds; t++ {
		if err = o.ctx.Err(); err != nil {
			break
		}
		var bits int
		if bits, err = m.send(t); err != nil {
			break
		}
		res.RoundBits[t-1] = bits
		res.TotalBits += bits
		m.deliver(t)
	}
	if err != nil {
		recycleInts(res.RoundBits)
		roundsSpan.EndErr(err)
		return nil, err
	}
	m.finish(res)
	annotateRounds(roundsSpan, res)
	assembleSpan := span.Child("assemble")
	finishOutputs(res, nodes)
	assembleSpan.End()
	return res, nil
}

// medium is what differs between the round loop's two paths: how a
// round's broadcasts are collected, counted and heard. Both
// implementations are pooled and drop the run on release.
type medium interface {
	// send collects round t's broadcasts and returns how many bits
	// they total.
	send(t int) (int, error)
	// deliver hands round t's broadcasts to the run: once to a bound
	// run, or to every node of an unbound one (Message vector only).
	deliver(t int)
	// finish attaches the medium's transcripts to a completed run.
	finish(res *Result)
	release()
}

// bindMedium picks the run's medium. The bit plane serves 1-bit bound
// runs that implement BitRun and accept the instance's wiring
// (BindPlane); only the Message vector takes the nodes. Runs that
// record received transcripts need per-port inboxes and take the
// vector, as does every unbound or multi-bit run and every declined
// binding.
func bindMedium(in *Instance, run BoundRun, nodes []Node, b int, res *Result, o options) medium {
	r, ok := run.(BitRun)
	if ok && b == 1 && !o.noBitPlane && !o.recordReceived && r.BindPlane(in.canonical) {
		return acquirePlane(r, len(nodes), res.Rounds, o)
	}
	return acquireVector(in, run, nodes, b, res, o)
}

// messageVector is the generic medium: one Message per vertex per
// round, the per-port inbox of an unbound run's nodes, and the Sent
// (and optionally Received) transcripts. The scratch is pooled across
// runs (and across the worker goroutines of a sweep grid) so the hot
// loop is allocation-free once the pool has warmed up for a given
// instance size; every slot is overwritten before it is read, so stale
// pool contents are inert.
type messageVector struct {
	in          *Instance
	b           int
	nodes       []Node
	run         BoundRun // nil for an unbound run
	sends       []Message
	inbox       []Message // one vertex's inbox, assembled in turn
	transcripts []Transcript
	received    bool
}

var vectorPool = sync.Pool{New: func() interface{} { return new(messageVector) }}

// acquireVector returns a pooled vector bound to the run's nodes, with
// res's transcripts allocated unless the run records none.
func acquireVector(in *Instance, run BoundRun, nodes []Node, b int, res *Result, o options) *messageVector {
	mv := vectorPool.Get().(*messageVector)
	n, rounds := len(nodes), res.Rounds
	if cap(mv.sends) < n {
		mv.sends = make([]Message, n)
		mv.inbox = make([]Message, n-1)
	}
	mv.sends, mv.inbox = mv.sends[:n], mv.inbox[:n-1]
	mv.in, mv.b, mv.nodes, mv.run, mv.received = in, b, nodes, run, o.recordReceived
	if !o.noTranscripts {
		res.Transcripts = make([]Transcript, n)
		// One flat arena backs every vertex's Sent transcript: n slices
		// into a single allocation instead of n append-grown ones.
		sentArena := make([]Message, n*rounds)
		for v := 0; v < n; v++ {
			res.Transcripts[v].Sent = sentArena[v*rounds : (v+1)*rounds : (v+1)*rounds]
			if o.recordReceived {
				res.Transcripts[v].Received = make([][]Message, 0, rounds)
			}
		}
		mv.transcripts = res.Transcripts
	}
	return mv
}

func (mv *messageVector) send(t int) (int, error) {
	b, sends, transcripts := mv.b, mv.sends, mv.transcripts
	rb := 0
	for v, node := range mv.nodes {
		m := node.Send(t)
		if int(m.Len) > b {
			return 0, fmt.Errorf("bcc: vertex %d broadcast %d bits in round %d, bandwidth is %d", v, m.Len, t, b)
		}
		sends[v] = m
		rb += int(m.Len)
		if transcripts != nil {
			transcripts[v].Sent[t-1] = m
		}
	}
	return rb, nil
}

// deliver hears round t. A bound run hears the vertex-indexed vector
// once. Otherwise each node receives its per-port inbox; a
// received-transcript run assembles and records every inbox, and then
// a bound run hears the round.
func (mv *messageVector) deliver(t int) {
	in, sends, inbox, n := mv.in, mv.sends, mv.inbox, len(mv.nodes)
	if mv.run != nil && !mv.received {
		mv.run.Hear(t, sends)
		return
	}
	var recvArena []Message
	if mv.received {
		recvArena = make([]Message, n*(n-1))
	}
	if !in.canonical {
		in.materialize() // a seeded wiring's tables, on first need
	}
	for v, node := range mv.nodes {
		if in.canonical {
			// Canonical ascending-ID wiring: port p of v carries vertex
			// p (p < v) or p+1, so delivery is two block copies instead
			// of an indexed gather.
			copy(inbox[:v], sends[:v])
			copy(inbox[v:], sends[v+1:])
		} else {
			// delivery[p] is the vertex whose broadcast lands on port p
			// of v — the instance's precomputed port table, one linear
			// pass per vertex instead of a PortOf(v, u) lookup per
			// (v, u) pair.
			for p, u := range in.ports[v] {
				inbox[p] = sends[u]
			}
		}
		if mv.run == nil {
			node.Receive(t, inbox)
		}
		if mv.received {
			row := recvArena[v*(n-1) : (v+1)*(n-1) : (v+1)*(n-1)]
			copy(row, inbox)
			mv.transcripts[v].Received = append(mv.transcripts[v].Received, row)
		}
	}
	if mv.run != nil {
		mv.run.Hear(t, sends)
	}
}

// finish has nothing to attach: the vector writes transcripts in place.
func (mv *messageVector) finish(*Result) {}

// release drops the run's instance, nodes and transcripts and pools the
// scratch.
func (mv *messageVector) release() {
	mv.in, mv.nodes, mv.run, mv.transcripts = nil, nil, nil, nil
	vectorPool.Put(mv)
}

// annotateRounds summarizes a finished round loop onto its span and
// ends it: round/bit totals, which medium served the run, and a coarse
// per-round-window bit profile derived from the already-recorded
// RoundBits series — all computed after the loop, so the hot path never
// touches the tracer.
func annotateRounds(s *obs.Span, res *Result) {
	if s == nil {
		return
	}
	s.SetNum("rounds", float64(res.Rounds))
	s.SetNum("total_bits", float64(res.TotalBits))
	if res.BitPlane {
		s.SetNum("bit_plane", 1)
	}
	s.SetStr("round_windows", roundWindows(res.RoundBits))
	s.End()
}

// roundWindows compresses the per-round bit series into at most eight
// equal windows of summed bits ("4096/4096/2048/…"): enough to see
// where in the run the bits went without per-round spans.
func roundWindows(bits []int) string {
	if len(bits) == 0 {
		return ""
	}
	windows := 8
	if len(bits) < windows {
		windows = len(bits)
	}
	var sb strings.Builder
	for w := 0; w < windows; w++ {
		lo := w * len(bits) / windows
		hi := (w + 1) * len(bits) / windows
		sum := 0
		for _, v := range bits[lo:hi] {
			sum += v
		}
		if w > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(strconv.Itoa(sum))
	}
	return sb.String()
}

// finishOutputs collects the decision/labelling epilogue shared by both
// runner paths. The label scratch is pooled and only kept by the
// Result when every node is a Labeler.
func finishOutputs(res *Result, nodes []Node) {
	n := len(nodes)
	res.HasVerdict = true
	verdict := VerdictYes
	labels := takeInts(n)
	allLabelers := true
	for v := 0; v < n; v++ {
		if d, ok := nodes[v].(Decider); ok {
			if d.Decide() == VerdictNo {
				verdict = VerdictNo
			}
		} else {
			res.HasVerdict = false
		}
		if l, ok := nodes[v].(Labeler); ok {
			labels[v] = l.Label()
		} else {
			allLabelers = false
		}
	}
	if res.HasVerdict {
		res.Verdict = verdict
	}
	if allLabelers {
		res.Labels = labels
	} else {
		recycleInts(labels)
	}
}

// EstimateError runs a Monte Carlo algorithm once per coin seed and returns
// the fraction of runs whose system verdict differs from want. This is the
// empirical counterpart of the ε in the paper's ε-error Monte Carlo
// definition (Section 1.2).
//
// Seeded runs execute in parallel on the process-wide worker pool (see
// internal/parallel); the estimate is bit-identical at every worker count
// because each seed's run is independent. A WithCoin option in opts is
// rejected: it would conflict with — and previously silently overrode —
// the per-seed coins, collapsing every run onto one coin.
func EstimateError(in *Instance, algo Algorithm, want Verdict, seeds []int64, opts ...Option) (float64, error) {
	return EstimateErrorContext(context.Background(), in, algo, want, seeds, opts...)
}

// EstimateErrorContext is EstimateError with cancellation: once ctx is
// done, unstarted seeds are skipped, in-flight runs stop at their next
// round boundary, and ctx's error is returned — a partial estimate is
// never reported as if it covered every seed.
func EstimateErrorContext(ctx context.Context, in *Instance, algo Algorithm, want Verdict, seeds []int64, opts ...Option) (float64, error) {
	if len(seeds) == 0 {
		return 0, fmt.Errorf("bcc: no seeds")
	}
	probe := options{rounds: -1}
	for _, opt := range opts {
		opt.apply(&probe)
	}
	if probe.coin != nil {
		return 0, fmt.Errorf("bcc: EstimateError: WithCoin conflicts with per-seed coins; pass seeds instead")
	}
	wrong := make([]bool, len(seeds))
	err := parallel.ForEachCtx(ctx, len(seeds), func(i int) error {
		runOpts := make([]Option, 0, len(opts)+1)
		runOpts = append(runOpts, opts...)
		runOpts = append(runOpts, WithCoin(NewCoin(seeds[i])))
		res, err := RunContext(ctx, in, algo, runOpts...)
		if err != nil {
			return err
		}
		if !res.HasVerdict {
			return fmt.Errorf("bcc: algorithm %q produced no verdict", algo.Name())
		}
		wrong[i] = res.Verdict != want
		// Nothing outlives the verdict check: recycle the per-run cost
		// series and label scratch instead of churning the allocator
		// once per seed.
		Recycle(res)
		return nil
	})
	if err != nil {
		return 0, err
	}
	count := 0
	for _, w := range wrong {
		if w {
			count++
		}
	}
	return float64(count) / float64(len(seeds)), nil
}

// SentTritLabels returns, for every vertex, the {0,1,⊥}-string it broadcast
// over the run — the per-vertex sequences x, y used to define edge labels
// and active edges in the KT-0 lower bound (Section 3). It errors if any
// message is longer than one bit. Bit-plane runs derive the strings
// directly from the packed trit arena.
func SentTritLabels(res *Result) ([]string, error) {
	labels := make([]string, len(res.Transcripts))
	if res.trits != nil {
		for v := range res.Transcripts {
			labels[v] = res.trits.tritString(v)
		}
		return labels, nil
	}
	for v := range res.Transcripts {
		s, err := TritString(res.Transcripts[v].Sent)
		if err != nil {
			return nil, fmt.Errorf("vertex %d: %w", v, err)
		}
		labels[v] = s
	}
	return labels, nil
}
