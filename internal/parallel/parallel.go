// Package parallel is a small deterministic fork/join helper used by the
// experiment engine: bounded worker pools whose results are indexed by
// task, so the outcome of a parallel sweep is bit-identical to the
// sequential loop it replaces regardless of worker count or scheduling.
//
// Determinism contract: tasks receive only their index (plus whatever
// index-derived state the caller computes, e.g. a per-task RNG seed from
// DeriveSeed) and write only to their own slot. Under that contract a
// sweep produces identical state at every worker count.
//
// Concurrency contract: helper goroutines come out of one process-wide
// budget of Limit−1 slots, shared by every ForEach including nested ones
// (an experiment sweep inside an experiment suite), so the engine never
// runs more than Limit CPU-bound workers no matter how sweeps nest. The
// calling goroutine always executes tasks itself — a sweep that gets no
// helper slots degrades to the sequential loop, never deadlocks.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// limit is the process-wide worker count. Zero means "use
// runtime.GOMAXPROCS(0)". Commands set it from their -parallel flag.
var limit atomic.Int64

// helpers counts helper goroutines currently running across all ForEach
// calls; it never exceeds Limit()-1.
var helpers atomic.Int64

// SetLimit sets the process-wide worker count. n <= 0 restores the
// default (all available CPUs). SetLimit(1) forces every sweep to run
// sequentially.
func SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Limit returns the resolved process-wide worker count: the value set by
// SetLimit, or runtime.GOMAXPROCS(0) when unset.
func Limit() int {
	if n := int(limit.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// acquireHelper reserves one slot of the global helper budget.
func acquireHelper() bool {
	for {
		cur := helpers.Load()
		if cur >= int64(Limit()-1) {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helpers.Add(-1) }

// ForEach runs fn(i) for every i in [0, n) on the calling goroutine plus
// up to Limit−1 helpers from the global budget. All n tasks are
// attempted even after a failure; the returned error is the one from the
// lowest-index failing task, so the error observed is independent of
// scheduling.
func ForEach(n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no new
// tasks are started (tasks already running finish on their own — fn is
// responsible for observing ctx internally if it is long). Task errors
// keep ForEach's contract — the lowest-index failing task's error is
// returned, so the error observed for completed work is independent of
// scheduling; if no task failed but the context cancelled the sweep
// before every task ran, ctx's error is returned.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Limit()
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		started := 0
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			started++
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			return first
		}
		if started < n {
			return ctx.Err()
		}
		return nil
	}
	errs := make([]error, n)
	var next, completed atomic.Int64
	run := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
			completed.Add(1)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		if !acquireHelper() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			run()
		}()
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if completed.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}

// DeriveSeed derives a per-task RNG seed from a base seed and a task
// index using a splitmix64 finalizer. Tasks seeded this way observe
// streams that depend only on (base, i), never on worker count or
// interleaving — the per-task-RNG half of the determinism contract.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
