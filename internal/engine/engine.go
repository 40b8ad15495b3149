// Package engine is the execution layer of the experiment pipeline. It
// takes declarative Specs (see spec.go), fans them out on the
// deterministic worker pool of internal/parallel, consults the
// content-addressed result cache of internal/results before computing
// anything, and streams finished sections in registry ID order to any
// report.Renderer. Both frontends, the experiments CLI and the bccd
// HTTP server, sit on this one engine and therefore share one cache: a
// result computed once for a (spec, config, build) triple is never
// recomputed.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

// Result re-exports the report result type: engine callers produce and
// consume report.Result values.
type Result = report.Result

// EventKind labels an Event.
type EventKind string

// The event kinds emitted while a spec set runs.
const (
	EventStarted EventKind = "started" // spec began executing
	EventCached  EventKind = "cached"  // spec served from the result cache
	EventDone    EventKind = "done"    // spec finished executing
	EventFailed  EventKind = "failed"  // spec returned an error
)

// Event is one progress notification. Events are emitted from worker
// goroutines; the observer must be safe for concurrent calls.
type Event struct {
	Kind   EventKind `json:"kind"`
	SpecID string    `json:"spec_id"`
	// Cell identifies the grid cell for sweep-grid events (empty for
	// scalar spec events).
	Cell string `json:"cell,omitempty"`
	// Cache is the store's verdict for cached/done events: "hit",
	// "miss" or "bypass" (computed without touching an unhealthy
	// backend). Empty for started/failed events.
	Cache   string        `json:"cache,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	Err     string        `json:"error,omitempty"`
}

// Engine executes a fixed spec registry, optionally through a result
// store. An Engine is safe for concurrent use; every Run call shares the
// process-wide worker budget and the store's single-flight table.
type Engine struct {
	specs  []Spec
	grids  []GridSpec
	store  *results.Store
	build  string
	tracer *obs.Tracer

	executions     atomic.Int64
	cellExecutions atomic.Int64

	jobs jobTable
}

// Option configures an Engine.
type Option func(*Engine)

// WithStore routes every execution through the given result cache.
// Without it the engine always computes.
func WithStore(s *results.Store) Option {
	return func(e *Engine) { e.store = s }
}

// WithTracer attaches a span tracer: background jobs get a root span
// per job (trace ID = job ID), and every run whose context carries a
// span — job or frontend-rooted — records the spec → grid → cell →
// phase tree into the tracer's ring. A nil tracer (the default)
// disables tracing at the cost of one nil check per phase.
func WithTracer(t *obs.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithGrids registers sweep grids (see GridSpec). Each grid is also
// synthesized into a regular registry Spec appended after the scalar
// specs, so grids show up in /v1/specs, reports, and jobs like any
// experiment while additionally being runnable cell-by-cell through
// RunGrid.
func WithGrids(grids ...GridSpec) Option {
	return func(e *Engine) { e.grids = append(e.grids, grids...) }
}

// New builds an engine over the given registry.
func New(specs []Spec, opts ...Option) *Engine {
	e := &Engine{specs: append([]Spec(nil), specs...), build: buildVersion()}
	e.jobs.init()
	for _, opt := range opts {
		opt(e)
	}
	for _, g := range e.grids {
		if err := g.validate(); err != nil {
			// A registry misdeclaration, not a runtime condition: fail at
			// construction so the mistake cannot ship as silent behavior.
			panic(err)
		}
		e.specs = append(e.specs, e.gridSpec(g))
	}
	return e
}

// buildVersion identifies the running build; it is folded into every
// cache key so results from a different build never collide. Released
// module builds are identified by module version+checksum (shared across
// all binaries of that build). Development builds ((devel), empty
// checksum — `go run`, `go test`) fall back to the SHA-256 of the
// running executable: identical rebuilds hash identically, any code
// change rehashes, so a dev cache can never serve results computed by
// different logic.
var buildVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if ok && bi.Main.Sum != "" {
		return bi.Main.Version + "+" + bi.Main.Sum
	}
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "exe-" + hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return "unknown"
})

// Specs returns the registry in ID order.
func (e *Engine) Specs() []Spec { return e.specs }

// Lookup finds a spec by ID.
func (e *Engine) Lookup(id string) (Spec, bool) {
	for _, s := range e.specs {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Store returns the engine's result store (nil when uncached).
func (e *Engine) Store() *results.Store { return e.store }

// Tracer returns the engine's span tracer (nil when tracing is off) —
// the handle frontends use to serve /v1/traces and root request spans.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Executions returns how many spec executions this engine has actually
// performed (cache hits excluded) — the counter cache tests assert on.
func (e *Engine) Executions() int64 { return e.executions.Load() }

// CacheKey is the content address of (spec, cfg) under the current
// build: schema version, build version, canonical spec encoding and
// canonical config, hashed with per-part length prefixes.
func (e *Engine) CacheKey(spec Spec, cfg Config) string {
	return results.Key(
		fmt.Sprintf("schema=%d", results.SchemaVersion),
		"build="+e.build,
		"spec="+spec.Key(),
		"cfg="+cfg.Canonical(),
	)
}

// selectSpecs filters the registry to the listed IDs (all when empty),
// preserving registry order. Unknown IDs are ignored; frontends that
// want a hard error validate with Lookup first.
func (e *Engine) selectSpecs(only []string) []Spec {
	allowed := make(map[string]bool, len(only))
	for _, id := range only {
		allowed[id] = true
	}
	var selected []Spec
	for _, s := range e.specs {
		if len(allowed) > 0 && !allowed[s.ID] {
			continue
		}
		selected = append(selected, s)
	}
	return selected
}

// runOne executes (or serves from cache) a single spec.
func (e *Engine) runOne(ctx context.Context, spec Spec, cfg Config, emit func(Event)) (result *Result, rerr error) {
	ctx, span := obs.Start(ctx, "spec")
	if span != nil {
		span.SetStr("spec", spec.ID)
		defer func() { span.EndErr(rerr) }()
	}
	var key string
	if e.store != nil {
		key = e.CacheKey(spec, cfg)
	}
	return e.runUnit(ctx, span, key, spec.ID, "", emit, func() (*Result, error) {
		e.executions.Add(1)
		start := time.Now() //bccvet:ignore detpath -- measurement site: elapsed is reported, never part of a table key
		res, err := spec.Run(ctx, cfg, spec.Params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
		res.ID, res.Title, res.PaperRef = spec.ID, spec.Title, spec.PaperRef
		res.Elapsed = time.Since(start) //bccvet:ignore detpath -- measurement site: elapsed is reported, never part of a table key
		return res, nil
	})
}

// runUnit computes one unit — a spec, or a cell when cell is set —
// through the store under key, or directly when the engine has none.
// It emits the unit's events (started from inside compute, so a store
// hit never emits it) and sets span's cache attribute.
func (e *Engine) runUnit(ctx context.Context, span *obs.Span, key, specID, cell string, emit func(Event), compute func() (*Result, error)) (*Result, error) {
	run := func() (*Result, error) {
		emit(Event{Kind: EventStarted, SpecID: specID, Cell: cell})
		return compute()
	}
	var (
		res   *Result
		state results.CacheState // StateMiss when computed without a store
		err   error
	)
	if e.store == nil {
		res, err = run()
	} else {
		res, state, err = e.store.Do(ctx, key, run)
	}
	if err != nil {
		emit(Event{Kind: EventFailed, SpecID: specID, Cell: cell, Err: err.Error()})
		return nil, err
	}
	kind := EventDone
	if state.Cached() {
		kind = EventCached
	}
	emit(Event{Kind: kind, SpecID: specID, Cell: cell, Cache: state.String(), Elapsed: res.Elapsed})
	span.SetStr("cache", state.String())
	return res, nil
}

// Run executes the selected specs concurrently on the process-wide
// worker pool and returns their results in registry ID order. onEvent
// (optional) observes progress and may be called from worker goroutines.
// A failure stops specs that have not started yet, the completed prefix
// is returned, and the reported error is scheduling-independent (see
// fanOut, which grid cells share). Cancelling ctx stops specs
// that have not started, propagates into running specs (which observe it
// at their next round boundary), and returns the completed prefix with
// ctx's error — unless a spec genuinely failed first, in which case the
// lowest-indexed real failure wins.
func (e *Engine) Run(ctx context.Context, cfg Config, only []string, onEvent func(Event)) ([]*Result, error) {
	return e.run(ctx, cfg, only, onEvent, nil)
}

// Stream is Run plus ordered rendering: each section is handed to r as
// soon as it and all its predecessors have finished, always in registry
// ID order, so a slow suite still delivers early sections incrementally.
func (e *Engine) Stream(ctx context.Context, w io.Writer, r report.Renderer, m report.Meta, cfg Config, only []string, onEvent func(Event)) ([]*Result, error) {
	if err := r.Begin(w, m); err != nil {
		return nil, err
	}
	written, err := e.run(ctx, cfg, only, onEvent, func(i int, res *Result) error {
		return r.Section(w, i, res)
	})
	if err != nil {
		return written, err
	}
	return written, r.End(w, written)
}

func (e *Engine) run(ctx context.Context, cfg Config, only []string, onEvent func(Event), sink func(i int, res *Result) error) ([]*Result, error) {
	emit := func(Event) {}
	if onEvent != nil {
		emit = onEvent
	}
	selected := e.selectSpecs(only)
	var delivered []*Result
	err := fanOut(ctx, len(selected), nil,
		func(i int) (*Result, error) { return e.runOne(ctx, selected[i], cfg, emit) },
		func(i int, res *Result) error {
			if sink != nil {
				if err := sink(i, res); err != nil {
					return err
				}
			}
			delivered = append(delivered, res)
			return nil
		},
		func(i int) string { return "spec " + selected[i].ID })
	return delivered, err
}

// fanOut runs n units on the process-wide worker pool, starting them in
// the given order (nil: index order), and hands each result to deliver
// in index order as soon as it and all its predecessors have finished.
// A failure or a deliver error stops the units that have not started.
// The error returned is the lowest-indexed failure, so it does not
// depend on scheduling; failing that, ctx's error when cancellation
// skipped a unit. name labels a unit in the (unreachable) error for one
// skipped with neither cause.
func fanOut[T any](ctx context.Context, n int, order []int, run func(i int) (T, error), deliver func(i int, v T) error, name func(i int) string) error {
	type slot struct {
		done chan struct{}
		ran  bool
		v    T
		err  error
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	var stop atomic.Bool
	// A cancelled pool never starts (and so never closes done for) the
	// remaining units; poolDone unblocks the delivery loop then. By the
	// time poolDone closes every worker has finished, so all slot
	// writes are visible.
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		parallel.ForEachCtx(ctx, n, func(k int) error {
			i := k
			if order != nil {
				i = order[k]
			}
			s := &slots[i]
			defer close(s.done)
			if stop.Load() {
				return nil
			}
			s.v, s.err = run(i)
			s.ran = true
			if s.err != nil {
				stop.Store(true)
			}
			return nil
		})
	}()
	wait := func(i int) *slot {
		select {
		case <-slots[i].done:
		case <-poolDone:
		}
		return &slots[i]
	}
	for i := range slots {
		s := wait(i)
		if s.err != nil {
			return s.err
		}
		if !s.ran {
			// Skipped: a later-indexed unit failed first, or ctx was
			// cancelled. Surface the lowest-indexed real error; fall
			// back to the cancellation cause.
			for j := i + 1; j < n; j++ {
				if err := wait(j).err; err != nil {
					return err
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("engine: %s did not run", name(i))
		}
		if err := deliver(i, s.v); err != nil {
			stop.Store(true)
			return err
		}
	}
	return nil
}
