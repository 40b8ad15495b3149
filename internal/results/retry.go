package results

import (
	"context"
	"sync/atomic"
	"time"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
)

// RetryPolicy bounds a RetryBackend: up to MaxAttempts tries per
// operation, sleeping between them with exponential backoff and full
// jitter — a uniform draw from [0, min(MaxDelay, BaseDelay<<attempt)],
// the shape that avoids retry convoys when many callers fail together.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy is tuned for local or near-local blob stores:
// three attempts, 5ms base, 250ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
}

// RetryBackend decorates a Backend with bounded retries of transient
// failures. Only errors classified transient by IsTransient are
// retried; permanent errors (ENOSPC, bad permissions), ErrNotFound and
// context errors return immediately. The backoff sleep is ctx-aware, so
// a cancelled request never sits out a delay. Jitter draws come from a
// seeded splitmix64 stream (parallel.DeriveSeed), keeping chaos runs
// reproducible end to end.
type RetryBackend struct {
	inner Backend
	pol   RetryPolicy
	seed  int64

	draws    atomic.Int64 // jitter draw counter → deterministic stream
	attempts atomic.Int64
	retries  atomic.Int64
}

// WithRetry wraps inner in a RetryBackend with the given policy and
// jitter seed.
func WithRetry(inner Backend, pol RetryPolicy, seed int64) *RetryBackend {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	return &RetryBackend{inner: inner, pol: pol, seed: seed}
}

// Unwrap returns the decorated backend.
func (r *RetryBackend) Unwrap() Backend { return r.inner }

// Attempts returns the total operation attempts issued to the inner
// backend; Retries the subset that re-tried a failed attempt.
func (r *RetryBackend) Attempts() int64 { return r.attempts.Load() }
func (r *RetryBackend) Retries() int64  { return r.retries.Load() }

// delay computes the sleep before retry number `retry` (1-based) with
// full jitter from the deterministic draw stream.
func (r *RetryBackend) delay(retry int) time.Duration {
	ceil := r.pol.BaseDelay << (retry - 1)
	if r.pol.MaxDelay > 0 && ceil > r.pol.MaxDelay {
		ceil = r.pol.MaxDelay
	}
	if ceil <= 0 {
		return 0
	}
	u := uint64(parallel.DeriveSeed(r.seed, int(r.draws.Add(1))))
	frac := float64(u>>11) / (1 << 53)
	return time.Duration(frac * float64(ceil))
}

// do runs op under the retry policy. The per-operation attempt count is
// attached to the context's active span (attr "attempts") when it took
// more than one, so slow cache ops are attributable in traces.
func (r *RetryBackend) do(ctx context.Context, op func() error) error {
	var err error
	attempt := 1
	for {
		r.attempts.Add(1)
		err = op()
		if err == nil || !IsTransient(err) || attempt >= r.pol.MaxAttempts {
			break
		}
		r.retries.Add(1)
		d := r.delay(attempt)
		attempt++
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				if s := obs.FromContext(ctx); s != nil {
					s.SetNum("attempts", float64(attempt-1))
				}
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	if attempt > 1 {
		if s := obs.FromContext(ctx); s != nil {
			s.SetNum("attempts", float64(attempt))
		}
	}
	return err
}

func (r *RetryBackend) Get(ctx context.Context, key string) ([]byte, error) {
	var data []byte
	err := r.do(ctx, func() error {
		var e error
		data, e = r.inner.Get(ctx, key)
		return e
	})
	return data, err
}

func (r *RetryBackend) Put(ctx context.Context, key string, data []byte) error {
	return r.do(ctx, func() error { return r.inner.Put(ctx, key, data) })
}

func (r *RetryBackend) Delete(ctx context.Context, key string) error {
	return r.do(ctx, func() error { return r.inner.Delete(ctx, key) })
}
