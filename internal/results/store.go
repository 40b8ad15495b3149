// Package results is the durability layer of the experiment pipeline: a
// content-addressed store of report.Result values keyed by the
// canonical encoding of (spec key, run config, build version), layered
// over a pluggable blob Backend (disk today; ROADMAP item 1's remote
// store next). A result computed once for a key is never recomputed —
// concurrent requests for the same key are deduplicated in-process
// (single-flight) and later requests, including ones from other
// processes sharing the cache directory, are served from the backend.
//
// The store is built to survive a faulty backend without ever serving a
// wrong row. Every entry is wrapped in a checksummed envelope; an entry
// that fails verification is quarantined and transparently recomputed.
// Transient IO errors are retried by the RetryBackend decorator, and a
// backend that stays sick trips the Health circuit breaker, flipping Do
// into compute-through bypass: correct, freshly computed results at
// reduced cache efficiency instead of request failures.
package results

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bcclique/internal/obs"
	"bcclique/internal/report"
)

// SchemaVersion is folded into every cache key; bump it when the stored
// encoding of report.Result changes incompatibly. (The envelope carries
// its own version, so envelope changes do not bump this: pre-envelope
// entries under the same key fail verification, quarantine, and heal by
// recomputation.)
const SchemaVersion = 1

// Key derives the content address for an ordered list of canonical key
// parts. Parts are length-prefixed before hashing so distinct part
// boundaries can never collide ("ab","c" vs "a","bc").
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheState says how Do obtained a result: from the backend (hit), by
// piggybacking on an identical in-flight computation (shared), by
// computing and storing it (miss), or by computing without touching an
// unhealthy backend (bypass).
type CacheState int

const (
	StateMiss CacheState = iota
	StateHit
	StateShared
	StateBypass
)

// Cached reports whether compute was avoided.
func (s CacheState) Cached() bool { return s == StateHit || s == StateShared }

// String returns the wire form used by the X-Cache-State header and
// span attributes. Shared folds into "hit": the caller's compute was
// avoided; which process-local mechanism avoided it is a Stats detail.
func (s CacheState) String() string {
	switch s {
	case StateHit, StateShared:
		return "hit"
	case StateBypass:
		return "bypass"
	default:
		return "miss"
	}
}

// Stats are the store's counters since Open. Shared counts requests
// that piggybacked on an identical in-flight computation; PutErrors
// counts results that computed fine but could not be stored (full or
// read-only cache volume) and were served uncached; Quarantined counts
// entries that failed envelope verification and were moved aside;
// Bypassed counts requests served compute-through while the breaker was
// open; Attempts/Retries mirror the retry decorator when one is in the
// backend chain.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Shared      int64 `json:"shared"`
	Puts        int64 `json:"puts"`
	PutErrors   int64 `json:"put_errors,omitempty"`
	GetErrors   int64 `json:"get_errors,omitempty"`
	Quarantined int64 `json:"quarantined,omitempty"`
	Bypassed    int64 `json:"bypassed,omitempty"`
	Attempts    int64 `json:"attempts,omitempty"`
	Retries     int64 `json:"retries,omitempty"`
}

// Store is a content-addressed result cache over a Backend. All
// methods are safe for concurrent use.
type Store struct {
	backend Backend
	health  *Health
	log     *slog.Logger

	mu       sync.Mutex
	inflight map[string]*call

	hits, misses, shared, puts, putErrs atomic.Int64
	getErrs, quarantined, bypassed      atomic.Int64
}

type call struct {
	done  chan struct{}
	res   *report.Result
	state CacheState
	err   error
}

// Option configures a Store built with New.
type Option func(*Store)

// WithLogger routes the store's structured warnings (quarantines,
// backend failures) to l instead of discarding them.
func WithLogger(l *slog.Logger) Option {
	return func(s *Store) {
		if l != nil {
			s.log = l
		}
	}
}

// WithHealth installs a configured circuit breaker in place of the
// default one.
func WithHealth(h *Health) Option {
	return func(s *Store) {
		if h != nil {
			s.health = h
		}
	}
}

// New builds a Store over any Backend. Decorate the backend (retry,
// fault injection) before passing it in.
func New(b Backend, opts ...Option) *Store {
	s := &Store{
		backend:  b,
		health:   NewHealth(HealthConfig{}),
		log:      obs.NopLogger(),
		inflight: make(map[string]*call),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// DefaultDir is the cache root used when Open is given an empty path:
// <user cache dir>/bcclique (e.g. ~/.cache/bcclique on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("results: no user cache dir: %w", err)
	}
	return filepath.Join(base, "bcclique"), nil
}

// OpenFlagBackend interprets a -cache-dir flag value, the one policy
// shared by every entry point: "none" or "off" disables the cache (nil
// backend, nil error), "" opens DefaultDir, anything else opens that
// directory. When the *default* directory cannot be opened (read-only
// HOME, …) the cache is disabled rather than failing the run; an
// explicitly given directory that cannot be opened is an error. Callers
// that decorate the backend before building the Store use this;
// OpenFlag wraps it for the rest.
func OpenFlagBackend(dir string) (*DiskBackend, error) {
	if dir == "none" || dir == "off" {
		return nil, nil
	}
	explicit := dir != ""
	if dir == "" {
		d, err := DefaultDir()
		if err != nil {
			return nil, nil
		}
		dir = d
	}
	b, err := NewDiskBackend(dir)
	if err != nil && !explicit {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// OpenFlag is OpenFlagBackend plus Store construction — the
// undecorated fast path used by the CLI tools.
func OpenFlag(dir string) (*Store, error) {
	b, err := OpenFlagBackend(dir)
	if b == nil || err != nil {
		return nil, err
	}
	return New(b), nil
}

// Open opens (creating if needed) a disk-backed store rooted at dir; an
// empty dir selects DefaultDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		d, err := DefaultDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	b, err := NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	return New(b), nil
}

// Dir returns the root directory of the disk backend at the bottom of
// the decorator chain, or "" for a store over a dirless backend.
func (s *Store) Dir() string {
	b := s.backend
	for b != nil {
		if d, ok := b.(*DiskBackend); ok {
			return d.Dir()
		}
		u, ok := b.(Unwrapper)
		if !ok {
			return ""
		}
		b = u.Unwrap()
	}
	return ""
}

// Health returns the store's circuit breaker.
func (s *Store) Health() *Health { return s.health }

// Get loads the result stored under key, reporting whether it exists.
// A corrupt entry is quarantined and reported as a miss; a backend
// failure is an error.
func (s *Store) Get(ctx context.Context, key string) (*report.Result, bool, error) {
	data, err := s.backend.Get(ctx, key)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		s.getErrs.Add(1)
		return nil, false, err
	}
	res, verr := decodeEntry(data)
	if verr != nil {
		s.quarantine(ctx, key, data, verr)
		return nil, false, nil
	}
	return res, true, nil
}

// decodeEntry verifies and decodes one stored blob.
func decodeEntry(data []byte) (*report.Result, error) {
	payload, err := DecodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	var res report.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, &CorruptError{Reason: "payload", Err: err}
	}
	return &res, nil
}

// Put stores res under key inside a checksummed envelope.
func (s *Store) Put(ctx context.Context, key string, res *report.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("results: encode %s: %w", key, err)
	}
	if err := s.backend.Put(ctx, key, EncodeEnvelope(payload)); err != nil {
		s.putErrs.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

// quarantine moves a corrupt entry aside — preserving the bytes under
// quarantine/ for post-mortem, deleting the live entry so the
// recomputed result takes its place — and emits the structured record
// operators alert on. Best-effort: quarantine trouble must never fail
// the read that found the corruption.
func (s *Store) quarantine(ctx context.Context, key string, raw []byte, cause error) {
	s.quarantined.Add(1)
	reason := "corrupt"
	var ce *CorruptError
	if errors.As(cause, &ce) {
		reason = ce.Reason
	}
	if sp := obs.FromContext(ctx); sp != nil {
		sp.SetStr("quarantined", reason)
	}
	if err := s.backend.Put(ctx, "quarantine/"+key, raw); err != nil {
		s.log.WarnContext(ctx, "results: quarantine write failed", "key", key, "err", err)
	}
	if err := s.backend.Delete(ctx, key); err != nil {
		s.log.WarnContext(ctx, "results: quarantine delete failed", "key", key, "err", err)
	}
	s.log.WarnContext(ctx, "results: quarantined corrupt entry",
		"key", key, "reason", reason, "bytes", len(raw), "err", cause.Error())
}

// load probes the backend for key. found reports a verified entry;
// healthy reports whether the backend behaved — an absent key, a
// cancelled context and even a corrupt entry are healthy (corruption is
// data rot to heal by recomputing, not backend sickness to bypass), an
// IO error is not.
func (s *Store) load(ctx context.Context, key string) (res *report.Result, found, healthy bool) {
	gctx, span := obs.Start(ctx, "store.get")
	data, err := s.backend.Get(gctx, key)
	switch {
	case err == nil:
	case errors.Is(err, ErrNotFound):
		span.End()
		return nil, false, true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		span.EndErr(err)
		return nil, false, true
	default:
		s.getErrs.Add(1)
		span.EndErr(err)
		s.log.WarnContext(ctx, "results: backend get failed", "key", key, "err", err)
		return nil, false, false
	}
	res, verr := decodeEntry(data)
	if verr != nil {
		s.quarantine(gctx, key, data, verr)
		span.EndErr(verr)
		return nil, false, true
	}
	span.End()
	return res, true, true
}

// storeTimeout bounds the write of an already-computed result. The
// write runs detached from the caller's cancellation (see storePut), so
// this is what stops a hung backend from holding the cell forever.
const storeTimeout = 10 * time.Second

// storePut writes the computed result through the envelope, counting
// the outcome. The result is already paid for, so the write ignores the
// caller's cancellation and runs under storeTimeout instead: a cell that
// finished just before its job was cancelled stays cached (DESIGN §7.1).
// healthy reports whether the backend behaved; with the caller's
// cancellation detached, any failure, the deadline included, is the
// backend's.
func (s *Store) storePut(ctx context.Context, key string, res *report.Result) (healthy bool) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), storeTimeout)
	defer cancel()
	pctx, span := obs.Start(ctx, "store.put")
	err := s.Put(pctx, key, res)
	if err != nil {
		span.EndErr(err)
		s.log.WarnContext(ctx, "results: backend put failed", "key", key, "err", err)
		return false
	}
	span.End()
	return true
}

// Do returns the result for key, computing and storing it on a miss.
// Concurrent Do calls for the same key share one computation: exactly
// one caller runs compute, the rest block and receive its result. The
// CacheState reports how the result was obtained; state.Cached() is
// true when compute was avoided.
//
// The context governs this caller's wait, not the shared computation: a
// waiter whose ctx expires stops waiting and returns ctx's error while
// the in-flight compute (owned by another caller) runs on. Conversely, a
// piggybacked caller whose leader was cancelled does not inherit the
// leader's context error — it retries the lookup itself, so one client's
// disconnect can never poison another client's identical request.
// Cancelled or failed computations are never stored: the cache only
// ever holds successfully computed results. A computation that did
// finish is stored even if ctx is cancelled meanwhile.
//
// Backend trouble never fails Do: an unreadable entry degrades to a
// miss, an unwritable result is served uncached, and a backend sick
// enough to trip the breaker flips Do into compute-through bypass until
// a half-open trial succeeds.
func (s *Store) Do(ctx context.Context, key string, compute func() (*report.Result, error)) (res *report.Result, state CacheState, err error) {
	for {
		s.mu.Lock()
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, StateMiss, ctx.Err()
			case <-c.done:
			}
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				// The leader was cancelled, but this caller was not:
				// retry (the backend may even have the entry by now from
				// another process). Without this, a cancelled leader
				// would fail every piggybacked request behind it.
				if ctx.Err() == nil {
					continue
				}
				return nil, StateMiss, ctx.Err()
			}
			s.shared.Add(1)
			return c.res, StateShared, c.err
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		defer func() {
			c.res, c.state, c.err = res, state, err
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
			close(c.done)
		}()

		probe := s.health.Allow()
		if probe == nil {
			// Breaker open: the backend has been failing; computing
			// fresh is cheaper and safer than queueing behind sick IO.
			s.bypassed.Add(1)
			res, err = compute()
			if err != nil {
				return nil, StateBypass, err
			}
			return res, StateBypass, nil
		}

		// An unreadable cache (broken volume, bad permissions) degrades
		// to a miss: cache trouble must never fail a run that can
		// compute. Under tracing the backend probe and the eventual
		// write get their own child spans, so cache IO on a slow volume
		// is attributed instead of disappearing into the cell's wall
		// time.
		got, found, healthy := s.load(ctx, key)
		if found {
			probe.Done(true)
			s.hits.Add(1)
			return got, StateHit, nil
		}
		probe.Done(healthy)
		s.misses.Add(1)
		res, err = compute()
		if err != nil {
			return nil, StateMiss, err
		}
		// A result that computed fine but cannot be stored (full or
		// read-only cache volume) is still the answer: serve it uncached
		// and count the failure instead of failing the run.
		put := s.health.Allow()
		ok := true
		if put != nil {
			ok = s.storePut(ctx, key, res)
		}
		put.Done(ok)
		return res, StateMiss, nil
	}
}

// Stats returns the counters accumulated since Open, including the
// attempt counters of any retry decorator in the backend chain.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Shared:      s.shared.Load(),
		Puts:        s.puts.Load(),
		PutErrors:   s.putErrs.Load(),
		GetErrors:   s.getErrs.Load(),
		Quarantined: s.quarantined.Load(),
		Bypassed:    s.bypassed.Load(),
	}
	for b := s.backend; b != nil; {
		if a, ok := b.(AttemptStats); ok {
			st.Attempts += a.Attempts()
			st.Retries += a.Retries()
		}
		u, ok := b.(Unwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	return st
}
