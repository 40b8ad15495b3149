package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

// timingBackend sits where bccd's fault layer would, right above the
// disk and under the retry decorator, and times the disk part of every
// get and put, fsync included. The rest of a store get or put is
// envelope and codec work.
type timingBackend struct {
	results.Backend
	getNs, putNs, read, written atomic.Int64
}

func (t *timingBackend) Get(ctx context.Context, key string) ([]byte, error) {
	t0 := time.Now()
	data, err := t.Backend.Get(ctx, key)
	t.getNs.Add(int64(time.Since(t0)))
	t.read.Add(int64(len(data)))
	return data, err
}

func (t *timingBackend) Put(ctx context.Context, key string, data []byte) error {
	t0 := time.Now()
	err := t.Backend.Put(ctx, key, data)
	t.putNs.Add(int64(time.Since(t0)))
	t.written.Add(int64(len(data)))
	return err
}

type backendTotals struct{ getNs, putNs, read, written int64 }

func (t *timingBackend) totals() backendTotals {
	return backendTotals{t.getNs.Load(), t.putNs.Load(), t.read.Load(), t.written.Load()}
}

func (a backendTotals) minus(b backendTotals) backendTotals {
	return backendTotals{a.getNs - b.getNs, a.putNs - b.putNs, a.read - b.read, a.written - b.written}
}

// store is one engine over its own cache directory, with the store
// stack bccd builds: disk → (timing) → retry → results.New.
type store struct {
	eng *engine.Engine
	tb  *timingBackend
}

// replayer runs requests in process through the public calls bccd's
// handlers make, with the engine's tracer attached. One replayer serves
// every workload of a process, so a warm kind is primed once.
type replayer struct {
	dir    string
	procs  int
	tracer *obs.Tracer
	warm   *store
	primed map[*kind]bool
	stores int
}

// traceCapacity must hold every span of one replayed request; a warm
// SWEEP, the largest, records about 300.
const traceCapacity = 4096

func newReplayer(dir string, procs int) (*replayer, error) {
	r := &replayer{dir: dir, procs: procs, tracer: obs.New(traceCapacity), primed: map[*kind]bool{}}
	w, err := r.newStore()
	r.warm = w
	return r, err
}

func (r *replayer) newStore() (*store, error) {
	r.stores++
	disk, err := results.NewDiskBackend(fmt.Sprintf("%s/store-%d", r.dir, r.stores))
	if err != nil {
		return nil, err
	}
	tb := &timingBackend{Backend: disk}
	st := results.New(results.WithRetry(tb, results.DefaultRetryPolicy(), 1))
	return &store{eng: harness.NewEngine(engine.WithStore(st), engine.WithTracer(r.tracer)), tb: tb}, nil
}

// replayReq is one request to replay and the body bccd answered it
// with.
type replayReq struct {
	kind     *kind
	url      string
	httpBody []byte
}

// execResult is one in-process request.
type execResult struct {
	body   []byte
	cache  string // "miss" when any cell or spec was computed, else "hit"
	render time.Duration
}

// execute decodes a bccd URL into the engine calls its handler makes:
// LookupGrid → Restrict → RunGrid into a CSVSink for /v1/sweeps, Stream
// through report.JSON for /v1/report. render is the time spent in the
// sink, its flush and the renderer.
func execute(ctx context.Context, eng *engine.Engine, raw string) (execResult, error) {
	var res execResult
	u, err := url.Parse(raw)
	if err != nil {
		return res, err
	}
	q := u.Query()
	cfg := engine.Config{}
	if cfg.Seed, err = strconv.ParseInt(q.Get("seed"), 10, 64); err != nil {
		return res, fmt.Errorf("bad seed in %s", raw)
	}
	if v := q.Get("quick"); v != "" {
		if cfg.Quick, err = strconv.ParseBool(v); err != nil {
			return res, fmt.Errorf("bad quick in %s", raw)
		}
	}
	var (
		buf      bytes.Buffer
		computed atomic.Int64
	)
	observe := func(ev engine.Event) {
		if ev.Kind == engine.EventDone {
			computed.Add(1)
		}
	}
	switch u.Path {
	case "/v1/sweeps":
		g, ok := eng.LookupGrid(q.Get("grid"))
		if !ok {
			return res, fmt.Errorf("unknown grid in %s", raw)
		}
		var sizes []int
		for _, s := range list(q, "sizes") {
			n, err := strconv.Atoi(s)
			if err != nil {
				return res, fmt.Errorf("bad sizes in %s", raw)
			}
			sizes = append(sizes, n)
		}
		if g, err = g.Restrict(list(q, "protocols"), list(q, "families"), sizes); err != nil {
			return res, err
		}
		sink, flush, err := g.CSVSink(&buf)
		if err != nil {
			return res, err
		}
		timed := func(c engine.GridCell, row []string) error {
			t0 := time.Now()
			err := sink(c, row)
			res.render += time.Since(t0)
			return err
		}
		if _, err := eng.RunGrid(ctx, g, cfg, observe, timed); err != nil {
			return res, err
		}
		t0 := time.Now()
		err = flush()
		res.render += time.Since(t0)
		if err != nil {
			return res, err
		}
	case "/v1/report":
		r := &timedRenderer{inner: report.JSON{}}
		if _, err := eng.Stream(ctx, &buf, r, report.Meta{}, cfg, list(q, "only"), observe); err != nil {
			return res, err
		}
		res.render = r.spent
	default:
		return res, fmt.Errorf("no replay for %s", u.Path)
	}
	res.body = buf.Bytes()
	res.cache = "hit"
	if computed.Load() > 0 {
		res.cache = "miss"
	}
	return res, nil
}

func list(q url.Values, key string) []string {
	if v := q.Get(key); v != "" {
		return strings.Split(v, ",")
	}
	return nil
}

// timedRenderer times a Renderer. Stream calls it from one goroutine.
type timedRenderer struct {
	inner report.Renderer
	spent time.Duration
}

func (r *timedRenderer) Begin(w io.Writer, m report.Meta) error {
	defer r.add(time.Now())
	return r.inner.Begin(w, m)
}

func (r *timedRenderer) Section(w io.Writer, i int, res *report.Result) error {
	defer r.add(time.Now())
	return r.inner.Section(w, i, res)
}

func (r *timedRenderer) End(w io.Writer, all []*report.Result) error {
	defer r.add(time.Now())
	return r.inner.End(w, all)
}

func (r *timedRenderer) add(t0 time.Time) { r.spent += time.Since(t0) }

// primeWarm fills the warm store with each warm kind, at one worker per
// CPU, and checks its rows against the body bccd primed.
func (r *replayer) primeWarm(ctx context.Context, kinds []*kind, httpBodies map[*kind][]byte) error {
	parallel.SetLimit(r.procs)
	for _, k := range kinds {
		if r.primed[k] {
			continue
		}
		out, err := execute(ctx, r.warm.eng, k.url(warmSeed))
		if err != nil {
			return fmt.Errorf("prime %s in process: %w", k.name, err)
		}
		if !sameRows(k, out.body, httpBodies[k]) {
			return fmt.Errorf("prime %s in process: rows differ from bccd's", k.name)
		}
		r.primed[k] = true
	}
	return nil
}

// passResult is one pass over the replay set.
type passResult struct {
	wall      time.Duration // summed over requests
	latencies map[*kind][]time.Duration
	problems  []string

	// Filled by traced passes: per span name, the summed self time.
	self                map[string]time.Duration
	rootSelf, rootTotal time.Duration
	rounds, bits        float64

	render  time.Duration
	backend backendTotals
	cells   int64
	allocs  uint64
	alloced uint64
}

// pass replays reqs at the given worker count. Cold kinds run against a
// fresh store, so they compute exactly as they did in bccd; warm kinds
// run against the primed store. A traced pass opens one root span per
// request and reads the request's span tree back from the tracer.
func (r *replayer) pass(ctx context.Context, reqs []replayReq, workers int, traced bool) (passResult, error) {
	res := passResult{latencies: map[*kind][]time.Duration{}, self: map[string]time.Duration{}}
	cold, err := r.newStore()
	if err != nil {
		return res, err
	}
	parallel.SetLimit(workers)
	defer parallel.SetLimit(r.procs)
	// A nil tracer roots nothing: the untraced passes record no spans.
	var tracer *obs.Tracer
	if traced {
		tracer = r.tracer
	}
	warmBefore, warmCells := r.warm.tb.totals(), r.warm.eng.CellExecutions()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, rq := range reqs {
		st := cold
		if rq.kind.warm {
			st = r.warm
		}
		id := fmt.Sprintf("replay-%d-%d", r.stores, i)
		rctx, root := tracer.Root(ctx, "bench "+rq.kind.name, id)
		t0 := time.Now()
		out, err := execute(rctx, st.eng, rq.url)
		wall := time.Since(t0)
		root.EndErr(err)
		if err != nil {
			return res, fmt.Errorf("replay %s: %w", rq.url, err)
		}
		res.wall += wall
		res.latencies[rq.kind] = append(res.latencies[rq.kind], wall)
		res.render += out.render
		want := "miss"
		if rq.kind.warm {
			want = "hit"
		}
		if out.cache != want {
			res.problems = append(res.problems, fmt.Sprintf("replay %s: cache %s, want %s", rq.kind.name, out.cache, want))
		}
		if !sameRows(rq.kind, out.body, rq.httpBody) {
			res.problems = append(res.problems, fmt.Sprintf("replay %s at %d workers: rows differ from bccd's", rq.kind.name, workers))
		}
		if traced {
			if err := res.addTrace(r.tracer.Trace(id)); err != nil {
				return res, fmt.Errorf("replay %s: %w", rq.url, err)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	res.allocs, res.alloced = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	bt := cold.tb.totals()
	wt := r.warm.tb.totals().minus(warmBefore)
	res.backend = backendTotals{bt.getNs + wt.getNs, bt.putNs + wt.putNs, bt.read + wt.read, bt.written + wt.written}
	res.cells = cold.eng.CellExecutions() + r.warm.eng.CellExecutions() - warmCells
	want := 0
	for _, rq := range reqs {
		if !rq.kind.warm {
			want += rq.kind.cells
		}
	}
	if res.cells != int64(want) {
		res.problems = append(res.problems, fmt.Sprintf("replay at %d workers computed %d cells, want %d", workers, res.cells, want))
	}
	return res, nil
}

// addTrace folds one request's span tree into the pass.
func (p *passResult) addTrace(recs []obs.Record) error {
	var root *obs.Record
	for i := range recs {
		if recs[i].ParentID == "" {
			root = &recs[i]
		}
		if recs[i].Name == "run" {
			if a, ok := recs[i].Attr("rounds"); ok {
				p.rounds += a.Num
			}
			if a, ok := recs[i].Attr("total_bits"); ok {
				p.bits += a.Num
			}
		}
	}
	if root == nil {
		return errors.New("trace has no root span")
	}
	self := selfTimes(recs)
	for name, d := range self {
		p.self[name] += d
	}
	p.rootSelf += self[root.Name]
	p.rootTotal += root.Duration
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may overlap one another (cells
// run side by side above one worker), so their intervals are merged
// before they are subtracted.
func selfTimes(recs []obs.Record) map[string]time.Duration {
	kids := map[string][]*obs.Record{}
	for i := range recs {
		if p := recs[i].ParentID; p != "" {
			kids[p] = append(kids[p], &recs[i])
		}
	}
	self := map[string]time.Duration{}
	for i := range recs {
		r := &recs[i]
		self[r.Name] += r.Duration - covered(r, kids[r.SpanID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *obs.Record, kids []*obs.Record) time.Duration {
	type span struct{ from, to time.Time }
	ivs := make([]span, 0, len(kids))
	for _, k := range kids {
		from, to := k.Start, k.End()
		if from.Before(parent.Start) {
			from = parent.Start
		}
		if to.After(parent.End()) {
			to = parent.End()
		}
		if to.After(from) {
			ivs = append(ivs, span{from, to})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].from.Before(ivs[b].from) })
	var total time.Duration
	var cur span
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(ivs) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// spanMetrics maps the engine's span names to their per-layer metrics.
var spanMetrics = map[string]string{
	"generate":  "family.build_ms",
	"run":       "protocol.run_ms",
	"bind":      "bcc.bind_ms",
	"rounds":    "bcc.rounds_ms",
	"assemble":  "bcc.assemble_ms",
	"cell":      "engine.cell_ms",
	"grid":      "engine.grid_ms",
	"spec":      "engine.spec_ms",
	"store.get": "results.get_ms",
	"store.put": "results.put_ms",
}

// spanLayers turns the traced pass at one worker into per-request
// layer metrics: span self times, the store's disk share and bytes,
// render time and the simulation's exact counts.
func spanLayers(traced passResult, n int) map[string]float64 {
	per := func(v float64) float64 { return v / float64(n) }
	ms := func(d time.Duration) float64 { return per(float64(d) / float64(time.Millisecond)) }
	out := map[string]float64{}
	for name, metric := range spanMetrics {
		out[metric] = ms(traced.self[name])
	}
	out["results.backend_get_ms"] = ms(time.Duration(traced.backend.getNs))
	out["results.backend_put_ms"] = ms(time.Duration(traced.backend.putNs))
	out["results.bytes_read"] = per(float64(traced.backend.read))
	out["results.bytes_written"] = per(float64(traced.backend.written))
	out["report.render_ms"] = ms(traced.render)
	out["bcc.simulated_rounds"] = per(traced.rounds)
	out["bcc.simulated_bits"] = per(traced.bits)
	out["bcc.ns_per_bit"] = 0
	if traced.bits > 0 {
		out["bcc.ns_per_bit"] = float64(traced.self["rounds"]) / traced.bits
	}
	out["obs.unattributed_pct"] = 100 * float64(traced.rootSelf) / float64(traced.rootTotal)
	return out
}

// ratioLayers compares the traced pass with the untraced passes at one
// worker (allocations, tracing overhead) and at one worker per CPU
// (parallel speedup).
func ratioLayers(traced, one, all passResult, n int) map[string]float64 {
	return map[string]float64{
		"engine.parallel_speedup": float64(one.wall) / float64(all.wall),
		"engine.allocs":           float64(one.allocs) / float64(n),
		"engine.alloc_mb":         float64(one.alloced) / float64(n) / (1 << 20),
		"obs.trace_overhead_pct":  100 * float64(traced.wall-one.wall) / float64(one.wall),
	}
}
