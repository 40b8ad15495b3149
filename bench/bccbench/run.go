package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxLagMs bounds the generator's own lateness: an open-loop run whose
// lag p99 exceeds it measured the generator, not bccd, and is invalid.
const maxLagMs = 5

// scrapePeriod is how often /metrics is polled during the windows.
const scrapePeriod = 250 * time.Millisecond

// outcome collects one workload's measurements and check failures.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  map[string]int
	values    map[string]metric // units come from BENCHMARK.json
	refused   map[string]string
	streams   []streamSummary
	scales    []float64 // each slice's host scale
	// invalid holds why the generator, not bccd, spoiled the measurement;
	// discarded, why an earlier attempt at the workload was thrown away.
	invalid, discarded []string
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, values: map[string]metric{}, refused: map[string]string{}}
}

// problem records one failed check. Every failure counts in "failed"
// and makes the run exit non-zero.
func (o *outcome) problem(msg string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	o.failures[msg]++
}

// invalidate records that the generator's own lag spoiled a stream.
func (o *outcome) invalidate(msg string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.invalid = append(o.invalid, msg)
}

func (o *outcome) set(name string, v float64, samples int) {
	o.values[name] = metric{Value: v, Samples: samples}
}

// setPercentile records the p-th percentile of sorted, or why it was
// refused.
func (o *outcome) setPercentile(name string, sorted []float64, p int) {
	v, err := percentile(sorted, p)
	if err != nil {
		o.refused[name] = err.Error()
		return
	}
	o.set(name, v, len(sorted))
}

// requireAll fails the run for every metric of ms it did not measure:
// a refused percentile leaves a hole no result may have.
func (o *outcome) requireAll(ms []specMetric) {
	for _, m := range ms {
		if _, ok := o.values[m.Name]; !ok {
			o.problem(fmt.Sprintf("%s not measured: %s", m.Name, o.refused[m.Name]))
		}
	}
}

func (o *outcome) report(w io.Writer, name string) {
	for _, s := range o.streams {
		fmt.Fprintf(w, "bccbench: %s %s/%s: %d requests, %d failed, %.0f rows/s, p50 %s ms, lag p99 %s ms\n",
			name, s.Phase, s.Name, s.Requests, s.Failed, s.RowsPerS, fmtOpt(s.P50Ms), fmtOpt(s.LagP99Ms))
	}
	if len(o.scales) > 0 {
		fmt.Fprintf(w, "bccbench: %s: host scale %.3f–%.3f over %d slices (the stream lines are unscaled)\n",
			name, slices.Min(o.scales), slices.Max(o.scales), len(o.scales))
	}
	msgs := make([]string, 0, len(o.failures))
	for m := range o.failures {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		fmt.Fprintf(w, "bccbench: %s: FAIL ×%d: %s\n", name, o.failures[m], m)
	}
}

func fmtOpt(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f", *v)
}

// streamSummary is one stream's line in the result document.
type streamSummary struct {
	Phase    string   `json:"phase"`
	Name     string   `json:"name"`
	Loop     string   `json:"loop"`
	Conns    int      `json:"conns"`
	Requests int      `json:"requests"`
	Failed   int      `json:"failed"`
	RowsPerS float64  `json:"rows_per_s"`
	P50Ms    *float64 `json:"p50_ms,omitempty"`
	P90Ms    *float64 `json:"p90_ms,omitempty"`
	P99Ms    *float64 `json:"p99_ms,omitempty"`
	LagP99Ms *float64 `json:"lag_p99_ms,omitempty"`
}

// streamRun is one stream's shots, gathered over the slices of its
// phase's window.
type streamRun struct {
	st    stream
	no    int
	conns int
	next  int // index of the stream's next request
	shots []shot
	// wall is the sum of the slices' wall times; scaledWall the same at
	// the reference speed.
	wall, scaledWall time.Duration
	rows             int
	coldCells        int
	// sliceStart and sliceWall describe the slice not yet scaled.
	sliceStart int
	sliceWall  time.Duration
}

// scaleSlice applies the host scale measured around the slice just run
// to its shots and its wall time.
func (sr *streamRun) scaleSlice(f float64) {
	for i := sr.sliceStart; i < len(sr.shots); i++ {
		sr.shots[i].scale = f
	}
	sr.scaledWall += time.Duration(float64(sr.sliceWall) * f)
	sr.sliceStart = len(sr.shots)
}

// latenciesMs returns the stream's latencies, sorted, in milliseconds:
// as measured, or scaled to the reference speed.
func (sr *streamRun) latenciesMs(scaled bool) []float64 {
	lat := make([]time.Duration, len(sr.shots))
	for i, s := range sr.shots {
		lat[i] = s.latency
		if scaled {
			lat[i] = time.Duration(float64(s.latency) * s.scale)
		}
	}
	return sortedMs(lat)
}

// measure runs a workload, and runs it once more on a fresh bccd when
// the only thing wrong with the first attempt was the generator's lag: a
// stall of the host spoils a measurement without any request failing.
// A second invalid attempt fails the run.
func (b *bench) measure(ctx context.Context, w *workload, traced bool) (*outcome, error) {
	o, err := b.runWorkload(ctx, w, traced)
	if err == nil && o.failed == 0 && len(o.invalid) > 0 {
		fmt.Fprintf(os.Stderr, "bccbench: %s: discarded, measuring again: %s\n", w.name, strings.Join(o.invalid, "; "))
		discarded := o.invalid
		if o, err = b.runWorkload(ctx, w, traced); err == nil {
			o.discarded = discarded
		}
	}
	if err != nil {
		return nil, err
	}
	for _, msg := range o.invalid {
		o.problem(msg)
	}
	return o, nil
}

// runWorkload measures one workload against a fresh bccd and, when
// traced, replays it in process for the layer split.
func (b *bench) runWorkload(ctx context.Context, w *workload, traced bool) (*outcome, error) {
	o := newOutcome()
	fmt.Fprintf(os.Stderr, "bccbench: %s: set-up\n", w.name)

	// Set-up: boot bccd several times and keep the last; setup_s is the
	// median boot plus the priming of the warm kinds, scaled by the
	// references taken before and after.
	prev, err := b.ref.run()
	if err != nil {
		return nil, err
	}
	var boots []float64
	var srv *server
	for i := 0; i < setupBoots; i++ {
		s, d, err := startServer(ctx, b.probe, b.bin, b.dir, b.log)
		if err != nil {
			return nil, err
		}
		boots = append(boots, d.Seconds())
		if i < setupBoots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	t0 := time.Now()
	primed := map[*kind][]byte{}
	for _, k := range w.prime {
		r := get(ctx, b.client, srv.base+k.url(warmSeed))
		o.attempted++
		if _, problems := check(k, r, "miss", nil); problems != nil {
			return nil, fmt.Errorf("priming %s: %s", k.name, strings.Join(problems, "; "))
		}
		primed[k] = r.body
	}
	setup := median(boots) + time.Since(t0).Seconds()
	next, err := b.ref.run()
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup*scaleBetween(prev, next), len(boots))
	prev = next

	before, err := srv.scrape(ctx, b.probe)
	if err != nil {
		return nil, err
	}
	stopWatch := srv.watch(ctx, b.probe, scrapePeriod)
	var runs []*streamRun
	streamNo := 0
	for _, ph := range w.phases {
		fmt.Fprintf(os.Stderr, "bccbench: %s: phase %s\n", w.name, ph.name)
		phBefore, err := srv.scrape(ctx, b.probe)
		if err != nil {
			stopWatch()
			return nil, err
		}
		phRuns := make([]*streamRun, len(ph.streams))
		for i, st := range ph.streams {
			phRuns[i] = &streamRun{st: st, no: streamNo, conns: st.conns}
			if phRuns[i].conns == 0 {
				phRuns[i].conns = b.procs
			}
			streamNo++
		}
		// The window runs in slices of about sliceLen, each followed by a
		// reference while bccd is idle; a slice's shots take the scale of
		// the references on either side of it.
		window := time.Duration(float64(b.window) * ph.share)
		nSlices := max(1, int(math.Round(float64(window)/float64(sliceLen))))
		for range nSlices {
			var wg sync.WaitGroup
			for _, sr := range phRuns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.runSlice(ctx, o, srv, sr, window/time.Duration(nSlices), primed)
				}()
			}
			wg.Wait()
			next, err := b.ref.run()
			if err != nil {
				stopWatch()
				return nil, err
			}
			f := scaleBetween(prev, next)
			prev = next
			o.scales = append(o.scales, f)
			for _, sr := range phRuns {
				sr.scaleSlice(f)
			}
		}
		for _, sr := range phRuns {
			checkLag(o, sr)
		}
		phAfter, err := srv.scrape(ctx, b.probe)
		if err != nil {
			stopWatch()
			return nil, err
		}
		want := 0
		for _, sr := range phRuns {
			want += sr.coldCells
			o.streams = append(o.streams, summarize(ph.name, sr))
		}
		if got := phAfter.sum("bccd_cell_executions_total") - phBefore.sum("bccd_cell_executions_total"); got != float64(want) {
			o.problem(fmt.Sprintf("phase %s: bccd computed %.0f cells, want %d", ph.name, got, want))
		}
		runs = append(runs, phRuns...)
	}
	pk := stopWatch()
	after, err := srv.scrape(ctx, b.probe)
	if err != nil {
		return nil, err
	}
	hwm, err := srv.memMiB("VmHWM")
	if err != nil {
		return nil, err
	}
	srv.stop()
	if pk.err != nil {
		o.problem(pk.err.Error())
	}

	// End-to-end metrics.
	if len(pk.rss) == 0 {
		return nil, errors.New("no resident-set sample")
	}
	o.set("rss_mb", median(pk.rss), len(pk.rss))
	o.set("bccd.rss_hwm_mb", hwm, 1)
	for _, sr := range runs {
		if sr.st.latency {
			o.setPercentile("request_p50_ms", sr.latenciesMs(true), 50)
		}
		if sr.st.rows {
			o.set("rows_per_s", float64(sr.rows)/sr.scaledWall.Seconds(), len(sr.shots))
		}
	}

	// Serving counters, as deltas over the measured windows.
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	hits := delta("bccd_cache_hits_total") + delta("bccd_cache_shared_total")
	lookups := hits + delta("bccd_cache_misses_total")
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = hits / lookups
	}
	o.set("serving.queue_depth_max", pk.queueDepth, pk.scrapes)
	o.set("bcc.shards_inflight_max", pk.shardsInflight, pk.scrapes)
	o.set("engine.cell_executions", delta("bccd_cell_executions_total"), 2)
	o.set("results.hit_ratio", hitRatio, 2)
	// Retries and quarantines are 0 on a valid run, so they are checks,
	// not metrics. A refused request (429, 503) fails its own 200 check.
	retries, quarantined := after.sum("bccd_store_retries_total"), after.sum("bccd_store_quarantined_total")
	if retries != 0 || quarantined != 0 {
		o.problem(fmt.Sprintf("store retried %.0f and quarantined %.0f operations, want none", retries, quarantined))
	}

	if traced {
		if err := b.traceWorkload(ctx, o, w, runs, primed); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runSlice drives one stream for one slice of its phase's window and
// checks each response as it arrives. It keeps the bodies the replay
// compares against. An open loop starts its schedule afresh with each
// slice; request indices, and so seeds, run on across slices.
func (b *bench) runSlice(ctx context.Context, o *outcome, srv *server, sr *streamRun, window time.Duration, primed map[*kind][]byte) {
	base := sr.next
	shots, wall := drive(ctx, wallClock, window, sr.st.rps, sr.conns, func(i int) response {
		i += base
		k := sr.st.kinds[i%len(sr.st.kinds)]
		want := "miss"
		if k.warm {
			want = "hit"
		}
		r := get(ctx, b.client, srv.base+k.url(requestSeed(b.seed, k, sr.no, i)))
		var problems []string
		r.rows, problems = check(k, r, want, primed[k])
		r.ok = problems == nil
		for _, p := range problems {
			o.problem(p)
		}
		if k.warm || i >= b.k(k)*len(sr.st.kinds) {
			r.body = nil
		}
		return r
	})
	o.mu.Lock()
	o.attempted += len(shots)
	o.mu.Unlock()
	for i := range shots {
		s := &shots[i]
		// A closed loop may skip an index a worker took as the slice
		// closed; the next slice starts past the highest one sent.
		s.index += base
		sr.next = max(sr.next, s.index+1)
		sr.rows += s.rows
		if k := sr.st.kinds[s.index%len(sr.st.kinds)]; !k.warm && s.ok {
			sr.coldCells += k.cells
		}
	}
	sr.shots = append(sr.shots, shots...)
	sr.wall += wall
	sr.sliceWall = wall
}

// checkLag invalidates an open-loop stream whose generator lag p99,
// scaled to the reference speed like the latencies it inflates, exceeds
// maxLagMs. A window too short for a p99 (-smoke) is not checked.
func checkLag(o *outcome, sr *streamRun) {
	if sr.st.rps <= 0 {
		return
	}
	var lags []time.Duration
	for _, s := range sr.shots {
		lags = append(lags, time.Duration(float64(s.lag)*s.scale))
	}
	if lag, err := percentile(sortedMs(lags), 99); err == nil && lag > maxLagMs {
		o.invalidate(fmt.Sprintf("stream %s: generator lag p99 %.1f ms at the reference speed > %d ms: run invalid", sr.st.name, lag, maxLagMs))
	}
}

// check returns a response's row count and its problems, nil when it
// passed. A warm body must equal the primed one byte for byte.
func check(k *kind, r response, wantCache string, primedBody []byte) (int, []string) {
	switch {
	case r.err != nil:
		return 0, []string{fmt.Sprintf("%s: %v", k.name, r.err)}
	case r.code != http.StatusOK:
		return 0, []string{fmt.Sprintf("%s: HTTP %d: %s", k.name, r.code, strings.TrimSpace(string(r.body)))}
	}
	var problems []string
	if r.cache != wantCache {
		problems = append(problems, fmt.Sprintf("%s: X-Cache-State %q, want %q", k.name, r.cache, wantCache))
	}
	if primedBody != nil {
		if !bytes.Equal(r.body, primedBody) {
			return 0, append(problems, fmt.Sprintf("%s: body differs from the primed body", k.name))
		}
		return k.cells, problems
	}
	rows, err := checkBody(k, r.body)
	if err != nil {
		return 0, append(problems, err.Error())
	}
	return rows, problems
}

func summarize(phase string, sr *streamRun) streamSummary {
	s := streamSummary{Phase: phase, Name: sr.st.name, Loop: "closed", Conns: sr.conns,
		Requests: len(sr.shots), RowsPerS: float64(sr.rows) / sr.wall.Seconds()}
	var lat, lags []time.Duration
	for _, sh := range sr.shots {
		lat = append(lat, sh.latency)
		lags = append(lags, sh.lag)
		if !sh.ok {
			s.Failed++
		}
	}
	ms := sortedMs(lat)
	for _, p := range []struct {
		p   int
		dst **float64
	}{{50, &s.P50Ms}, {90, &s.P90Ms}, {99, &s.P99Ms}} {
		if v, err := percentile(ms, p.p); err == nil {
			*p.dst = &v
		}
	}
	if sr.st.rps > 0 {
		s.Loop = fmt.Sprintf("open %g rps", sr.st.rps)
		lag, _ := nearestRank(sortedMs(lags), 99)
		s.LagP99Ms = &lag
	}
	return s
}

// traceWorkload replays the first K successful requests of each kind
// in process: traced at one worker for the span split, untraced at one
// worker and at one worker per CPU for the ratios.
func (b *bench) traceWorkload(ctx context.Context, o *outcome, w *workload, runs []*streamRun, primed map[*kind][]byte) error {
	fmt.Fprintf(os.Stderr, "bccbench: %s: traced replay\n", w.name)
	if err := b.replay.primeWarm(ctx, w.prime, primed); err != nil {
		return err
	}
	var reqs []replayReq
	taken := map[*kind]int{}
	for _, sr := range runs {
		for _, s := range sr.shots {
			k := sr.st.kinds[s.index%len(sr.st.kinds)]
			if !s.ok || taken[k] >= b.k(k) {
				continue
			}
			taken[k]++
			body := s.body
			if k.warm {
				body = primed[k]
			}
			reqs = append(reqs, replayReq{kind: k, url: k.url(requestSeed(b.seed, k, sr.no, s.index)), httpBody: body})
		}
	}
	if len(reqs) == 0 {
		return errors.New("no successful request to replay")
	}
	// The untraced pass at one worker per CPU runs first and absorbs the
	// process's first-pass costs (heap growth, warming pools), which
	// would otherwise land on one side of the tracing-overhead ratio.
	// -smoke runs only the traced pass; the others feed ratios.
	var all passResult
	if !b.smoke {
		var err error
		if all, err = b.pass(ctx, o, reqs, b.procs, false); err != nil {
			return err
		}
	}
	traced, err := b.pass(ctx, o, reqs, 1, true)
	if err != nil {
		return err
	}
	for name, v := range spanLayers(traced, len(reqs)) {
		o.set(name, v, len(reqs))
	}
	if v := o.values["obs.unattributed_pct"].Value; v > 5 {
		o.problem(fmt.Sprintf("obs.unattributed_pct %.2f%% > 5%%: the layer split does not add up", v))
	}
	inProc := traced
	if !b.smoke {
		one, err := b.pass(ctx, o, reqs, 1, false)
		if err != nil {
			return err
		}
		for name, v := range ratioLayers(traced, one, all, len(reqs)) {
			o.set(name, v, len(reqs))
		}
		inProc = all
	}
	// serving.overhead_ms: what HTTP and admission add to the latency
	// stream's median, against the same kinds in process at one worker
	// per CPU. Both medians are as measured, not scaled.
	for _, sr := range runs {
		if !sr.st.latency {
			continue
		}
		var in []time.Duration
		seen := map[*kind]bool{}
		for _, k := range sr.st.kinds {
			if !seen[k] {
				seen[k] = true
				in = append(in, inProc.latencies[k]...)
			}
		}
		inP50, _ := nearestRank(sortedMs(in), 50)
		if e2e, err := percentile(sr.latenciesMs(false), 50); err == nil {
			o.set("serving.overhead_ms", e2e-inP50, len(in))
		} else {
			o.refused["serving.overhead_ms"] = err.Error()
		}
	}
	return nil
}

// pass runs one replay pass and records its check failures.
func (b *bench) pass(ctx context.Context, o *outcome, reqs []replayReq, workers int, traced bool) (passResult, error) {
	res, err := b.replay.pass(ctx, reqs, workers, traced)
	o.mu.Lock()
	o.attempted += len(reqs)
	o.mu.Unlock()
	for _, msg := range res.problems {
		o.problem(msg)
	}
	return res, err
}
