// Package fault is a deterministic fault-injecting decorator for
// results.Backend: the chaos half of the store's fault-tolerance stack.
// Every injected failure — error returns, added latency, torn writes,
// ENOSPC, hangs — is drawn from a seeded splitmix64 stream
// (parallel.DeriveSeed keyed by a per-backend operation counter), so a
// chaos run with a given profile and seed injects the same faults at
// the same operation indices every time. Wire it into bccd with
// -fault-profile or decorate a backend directly in tests.
package fault

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bcclique/internal/parallel"
	"bcclique/internal/results"
)

// Fault classes, used as sub-stream indices so each class draws an
// independent decision per operation.
const (
	classError = iota
	classLatency
	classTorn
	classENOSPC
	classHang
	classCount
)

// Profile says how often each fault class fires. Rates are
// probabilities in [0,1] evaluated independently per backend operation
// (torn writes only on Put). The zero Profile injects nothing.
type Profile struct {
	Seed int64
	// ErrorRate injects a transient error (retryable).
	ErrorRate float64
	// LatencyRate delays the operation by Latency before it runs.
	LatencyRate float64
	Latency     time.Duration
	// TornRate makes a Put persist only the first half of its bytes and
	// report success — the crash-after-partial-write model; the next
	// read finds a corrupt entry and quarantines it.
	TornRate float64
	// ENOSPCRate injects ENOSPC, a permanent error (not retried).
	ENOSPCRate float64
	// HangRate blocks the operation until the context is cancelled.
	HangRate float64
}

func (p Profile) enabled() bool {
	return p.ErrorRate > 0 || p.LatencyRate > 0 || p.TornRate > 0 || p.ENOSPCRate > 0 || p.HangRate > 0
}

// ParseProfile parses the -fault-profile flag syntax: comma-separated
// key=value fields from
//
//	error=RATE latency=RATE:DURATION torn=RATE enospc=RATE hang=RATE seed=N
//
// e.g. "error=0.05,latency=0.05:2ms,torn=0.05,seed=7". Unknown keys,
// malformed values and rates outside [0,1] are errors.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	rate := func(field, v string) (float64, error) {
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r < 0 || r > 1 {
			return 0, fmt.Errorf("fault: %s rate %q must be a number in [0,1]", field, v)
		}
		return r, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Profile{}, fmt.Errorf("fault: field %q is not key=value", field)
		}
		var err error
		switch k {
		case "error":
			p.ErrorRate, err = rate(k, v)
		case "latency":
			rv, dv, ok := strings.Cut(v, ":")
			if !ok {
				return Profile{}, fmt.Errorf("fault: latency %q must be RATE:DURATION", v)
			}
			if p.LatencyRate, err = rate(k, rv); err != nil {
				return Profile{}, err
			}
			if p.Latency, err = time.ParseDuration(dv); err != nil || p.Latency < 0 {
				return Profile{}, fmt.Errorf("fault: latency duration %q: %v", dv, err)
			}
		case "torn":
			p.TornRate, err = rate(k, v)
		case "enospc":
			p.ENOSPCRate, err = rate(k, v)
		case "hang":
			p.HangRate, err = rate(k, v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("fault: seed %q: %v", v, err)
			}
		default:
			return Profile{}, fmt.Errorf("fault: unknown field %q", k)
		}
		if err != nil {
			return Profile{}, err
		}
	}
	return p, nil
}

// Backend decorates a results.Backend with the profile's faults.
type Backend struct {
	inner results.Backend
	p     Profile
	n     atomic.Int64 // operation counter → decision stream position
}

// Wrap decorates inner with p's faults.
func Wrap(inner results.Backend, p Profile) *Backend {
	return &Backend{inner: inner, p: p}
}

// Unwrap returns the decorated backend.
func (b *Backend) Unwrap() results.Backend { return b.inner }

// Ops returns how many operations have passed through the decorator.
func (b *Backend) Ops() int64 { return b.n.Load() }

// roll draws fault class `class`'s uniform [0,1) decision for operation
// op from the deterministic stream.
func (b *Backend) roll(op int64, class int) float64 {
	u := uint64(parallel.DeriveSeed(b.p.Seed, int(op)*classCount+class))
	return float64(u>>11) / (1 << 53)
}

// before runs the pre-operation faults (latency, hang, error, ENOSPC)
// for operation op. A nil return lets the operation proceed.
func (b *Backend) before(ctx context.Context, op int64) error {
	if b.p.HangRate > 0 && b.roll(op, classHang) < b.p.HangRate {
		<-ctx.Done()
		return ctx.Err()
	}
	if b.p.LatencyRate > 0 && b.p.Latency > 0 && b.roll(op, classLatency) < b.p.LatencyRate {
		t := time.NewTimer(b.p.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if b.p.ErrorRate > 0 && b.roll(op, classError) < b.p.ErrorRate {
		return results.MarkTransient(fmt.Errorf("fault: injected error (op %d)", op))
	}
	if b.p.ENOSPCRate > 0 && b.roll(op, classENOSPC) < b.p.ENOSPCRate {
		return fmt.Errorf("fault: injected disk full (op %d): %w", op, syscall.ENOSPC)
	}
	return nil
}

func (b *Backend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := b.before(ctx, b.n.Add(1)); err != nil {
		return nil, err
	}
	return b.inner.Get(ctx, key)
}

func (b *Backend) Put(ctx context.Context, key string, data []byte) error {
	op := b.n.Add(1)
	if err := b.before(ctx, op); err != nil {
		return err
	}
	if b.p.TornRate > 0 && b.roll(op, classTorn) < b.p.TornRate {
		// Persist half the bytes and report success: the write "crashed"
		// after the data left the caller. The entry's envelope will fail
		// verification on the next read and be quarantined.
		if err := b.inner.Put(ctx, key, data[:len(data)/2]); err != nil {
			return err
		}
		return nil
	}
	return b.inner.Put(ctx, key, data)
}

func (b *Backend) Delete(ctx context.Context, key string) error {
	if err := b.before(ctx, b.n.Add(1)); err != nil {
		return err
	}
	return b.inner.Delete(ctx, key)
}
