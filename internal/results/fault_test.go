package results

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclique/internal/report"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"id":"E01","finding":"f"}`)
	got, err := DecodeEnvelope(EncodeEnvelope(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("round trip = %q", got)
	}
}

func TestEnvelopeRejectsTampering(t *testing.T) {
	blob := EncodeEnvelope([]byte(`{"id":"E01"}`))
	cases := []struct {
		name   string
		data   []byte
		reason string
	}{
		{"truncated", blob[:len(blob)-3], "length"},
		{"bit flip", flipLastByte(blob), "checksum"},
		{"garbage", []byte("not an envelope at all"), "header"},
		{"pre-envelope entry", []byte(`{"id":"E01","title":"plain json"}`), "header"},
		{"future schema", futureEnvelope(), "schema"},
		{"empty", nil, "header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeEnvelope(tc.data)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Reason != tc.reason {
				t.Errorf("reason = %v, want %q", err, tc.reason)
			}
		})
	}
}

func flipLastByte(blob []byte) []byte {
	out := append([]byte(nil), blob...)
	out[len(out)-1] ^= 0x01
	return out
}

func futureEnvelope() []byte {
	payload := []byte(`{}`)
	blob := EncodeEnvelope(payload)
	return []byte(strings.Replace(string(blob), `{"v":1,`, `{"v":99,`, 1))
}

// TestCorruptionRecovery is the quarantine acceptance table: entries
// damaged every way we model are detected on read, moved to
// quarantine/, recomputed, and the recomputed bytes are correct and
// re-cached — never served corrupt, never an error.
func TestCorruptionRecovery(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(blob []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"zero length", func([]byte) []byte { return nil }},
		{"bit flip", flipLastByte},
		{"garbage", func([]byte) []byte { return []byte("\x00\xff garbage \x7f") }},
		{"wrong schema", func([]byte) []byte { return futureEnvelope() }},
		{"pre-envelope plain JSON", func([]byte) []byte {
			data, _ := json.Marshal(sample())
			return data
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			key := Key("victim", tc.name)
			if err := s.Put(ctx, key, sample()); err != nil {
				t.Fatal(err)
			}
			// Damage the entry in place, as bit rot or a torn write would.
			p := s.backend.(*DiskBackend).path(key)
			blob, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}

			var computes atomic.Int64
			res, state, err := s.Do(ctx, key, func() (*report.Result, error) {
				computes.Add(1)
				return sample(), nil
			})
			if err != nil {
				t.Fatalf("Do over corrupt entry errored: %v", err)
			}
			if state.Cached() || computes.Load() != 1 {
				t.Errorf("corrupt entry must recompute: state=%v computes=%d", state, computes.Load())
			}
			if res.ID != "E01" || res.Tables[0].Rows[0][0] != "1" {
				t.Errorf("recomputed result mangled: %+v", res)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Errorf("stats = %+v, want 1 quarantined", st)
			}
			// The damaged bytes are preserved for post-mortem...
			qpath := filepath.Join(dir, "quarantine", key)
			if _, err := os.Stat(qpath); err != nil {
				t.Errorf("quarantined bytes not preserved: %v", err)
			}
			// ...and the healed entry serves the next caller from cache.
			res2, state2, err := s.Do(ctx, key, func() (*report.Result, error) {
				t.Error("healed entry recomputed")
				return sample(), nil
			})
			if err != nil || state2 != StateHit || res2.ID != "E01" {
				t.Errorf("healed read: state=%v err=%v", state2, err)
			}
		})
	}
}

// flakyBackend fails each operation kind a fixed number of times with a
// transient error before letting it through.
type flakyBackend struct {
	Backend
	mu       sync.Mutex
	putFails int
	getFails int
}

func (f *flakyBackend) Put(ctx context.Context, key string, data []byte) error {
	f.mu.Lock()
	fail := f.putFails > 0
	if fail {
		f.putFails--
	}
	f.mu.Unlock()
	if fail {
		return MarkTransient(errors.New("flaky put"))
	}
	return f.Backend.Put(ctx, key, data)
}

func (f *flakyBackend) Get(ctx context.Context, key string) ([]byte, error) {
	f.mu.Lock()
	fail := f.getFails > 0
	if fail {
		f.getFails--
	}
	f.mu.Unlock()
	if fail {
		return nil, MarkTransient(errors.New("flaky get"))
	}
	return f.Backend.Get(ctx, key)
}

func (f *flakyBackend) Unwrap() Backend { return f.Backend }

// TestDoRetryRecoversTransientPut is the satellite contract: the
// leader's Put fails transiently, the retry decorator absorbs it, and
// the result lands in the cache with exactly one compute.
func TestDoRetryRecoversTransientPut(t *testing.T) {
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBackend{Backend: disk, putFails: 2}
	s := New(WithRetry(flaky, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}, 1))
	ctx := context.Background()
	key := Key("transient-put")
	var computes atomic.Int64
	res, state, err := s.Do(ctx, key, func() (*report.Result, error) {
		computes.Add(1)
		return sample(), nil
	})
	if err != nil || state.Cached() || res == nil {
		t.Fatalf("Do: state=%v err=%v", state, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1 (retry must not recompute)", computes.Load())
	}
	st := s.Stats()
	if st.Puts != 1 || st.PutErrors != 0 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 1 put, 0 put errors, 2 retries", st)
	}
	// The entry really was stored: a cold store over the same dir hits.
	s2 := New(disk)
	if _, state, err := s2.Do(ctx, key, func() (*report.Result, error) {
		t.Error("entry was not stored")
		return sample(), nil
	}); err != nil || state != StateHit {
		t.Fatalf("warm read: state=%v err=%v", state, err)
	}
}

// TestDoStoresResultComputedBeforeCancel is the cancellation-resume
// contract at the store: compute finishes, then the caller's ctx is
// cancelled before Put. The result is already paid for, so it must
// still be stored: a cancelled job's finished cells stay cached and a
// rerun does not recompute them.
func TestDoStoresResultComputedBeforeCancel(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	key := Key("computed-then-cancelled")
	res, state, err := s.Do(ctx, key, func() (*report.Result, error) {
		cancel()
		return sample(), nil
	})
	if err != nil || state != StateMiss || res == nil {
		t.Fatalf("Do: res=%v state=%v err=%v", res, state, err)
	}
	if st := s.Stats(); st.Puts != 1 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v, want 1 put and 0 put errors", st)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, state, err := s2.Do(context.Background(), key, func() (*report.Result, error) {
		t.Error("result computed before the cancellation was not stored")
		return sample(), nil
	}); err != nil || state != StateHit {
		t.Fatalf("rerun: state=%v err=%v", state, err)
	}
}

func TestRetryGivesUpOnPermanent(t *testing.T) {
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	b := backendFunc{
		get: func(ctx context.Context, key string) ([]byte, error) {
			calls.Add(1)
			return nil, errors.New("permanent")
		},
		inner: disk,
	}
	r := WithRetry(b, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}, 1)
	if _, err := r.Get(context.Background(), "k"); err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Errorf("permanent error attempted %d times, want 1", calls.Load())
	}
	if r.Retries() != 0 {
		t.Errorf("retries = %d, want 0", r.Retries())
	}
}

func TestRetryHonoursCancelledContext(t *testing.T) {
	b := backendFunc{
		get: func(ctx context.Context, key string) ([]byte, error) {
			return nil, MarkTransient(errors.New("flaky"))
		},
	}
	r := WithRetry(b, RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Get(ctx, "k")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry sat out its backoff past cancellation")
	}
}

// backendFunc adapts closures to Backend for small tests; unset ops
// delegate to inner (which may be nil for ops the test never calls).
type backendFunc struct {
	get   func(ctx context.Context, key string) ([]byte, error)
	put   func(ctx context.Context, key string, data []byte) error
	inner Backend
}

func (b backendFunc) Get(ctx context.Context, key string) ([]byte, error) {
	if b.get != nil {
		return b.get(ctx, key)
	}
	return b.inner.Get(ctx, key)
}

func (b backendFunc) Put(ctx context.Context, key string, data []byte) error {
	if b.put != nil {
		return b.put(ctx, key, data)
	}
	return b.inner.Put(ctx, key, data)
}

func (b backendFunc) Delete(ctx context.Context, key string) error { return b.inner.Delete(ctx, key) }

func TestTransientClassification(t *testing.T) {
	if IsTransient(nil) || IsTransient(ErrNotFound) || IsTransient(context.Canceled) ||
		IsTransient(fmt.Errorf("wrap: %w", context.DeadlineExceeded)) {
		t.Error("nil/not-found/context errors must be permanent")
	}
	if !IsTransient(MarkTransient(errors.New("x"))) {
		t.Error("marked errors must be transient")
	}
	if !IsTransient(fmt.Errorf("op: %w", MarkTransient(errors.New("x")))) {
		t.Error("transience must survive wrapping")
	}
	if got := MarkTransient(errors.New("flaky io")).Error(); strings.Contains(got, "transient") {
		t.Errorf("marker leaked into message: %q", got)
	}
}

// fakeClock is an injectable time source for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testHealth(clk *fakeClock) *Health {
	return NewHealth(HealthConfig{
		Window: 8, MinSamples: 4, Threshold: 0.5, Cooldown: time.Second, Now: clk.now,
	})
}

func TestHealthStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := testHealth(clk)
	observe := func(ok bool) {
		p := h.Allow()
		if p == nil {
			t.Fatalf("Allow returned nil in state %s", h.State())
		}
		p.Done(ok)
	}
	// Healthy traffic keeps it closed.
	for i := 0; i < 10; i++ {
		observe(true)
	}
	if h.State() != StateClosed {
		t.Fatalf("state = %s, want closed", h.State())
	}
	// A burst of failures trips it (at 4 of the window's 8, the 0.5
	// threshold).
	for i := 0; i < 8 && h.State() == StateClosed; i++ {
		observe(false)
	}
	if h.State() != StateOpen {
		t.Fatalf("state after failures = %s, want open", h.State())
	}
	if h.Allow() != nil {
		t.Fatal("open breaker must refuse")
	}
	// Cooldown elapses: exactly one trial is admitted.
	clk.advance(2 * time.Second)
	trial := h.Allow()
	if trial == nil {
		t.Fatal("cooled-down breaker must admit a trial")
	}
	if h.State() != StateHalfOpen {
		t.Fatalf("state = %s, want half-open", h.State())
	}
	if h.Allow() != nil {
		t.Fatal("second op during a half-open trial must bypass")
	}
	// Trial fails: open again, cooldown restarts.
	trial.Done(false)
	if h.State() != StateOpen {
		t.Fatalf("state after failed trial = %s, want open", h.State())
	}
	if h.Allow() != nil {
		t.Fatal("freshly re-opened breaker must refuse")
	}
	// Next trial succeeds: closed with a clean window.
	clk.advance(2 * time.Second)
	trial = h.Allow()
	if trial == nil {
		t.Fatal("want a second trial")
	}
	trial.Done(true)
	if h.State() != StateClosed {
		t.Fatalf("state after good trial = %s, want closed", h.State())
	}
	snap := h.Snapshot()
	if snap.Samples != 0 || snap.Opened != 2 {
		t.Errorf("snapshot = %+v, want fresh window and 2 opens", snap)
	}
	// One early failure in the fresh window must not re-trip.
	observe(false)
	if h.State() != StateClosed {
		t.Fatalf("tripped below MinSamples: %s", h.State())
	}
}

func TestProbeDoneIdempotentAndNilSafe(t *testing.T) {
	var nilProbe *Probe
	nilProbe.Done(true) // must not panic
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := testHealth(clk)
	p := h.Allow()
	p.Done(false)
	p.Done(false)
	p.Done(false)
	if snap := h.Snapshot(); snap.Samples != 1 {
		t.Errorf("double Done double-counted: %+v", snap)
	}
}

// TestDoBypassServes is the degraded-mode contract: with the breaker
// open, Do computes through without touching the backend and reports
// StateBypass; when the backend recovers, a half-open trial closes the
// breaker and caching resumes.
func TestDoBypassServes(t *testing.T) {
	disk, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var broken atomic.Bool
	var backendOps atomic.Int64
	b := backendFunc{
		get: func(ctx context.Context, key string) ([]byte, error) {
			backendOps.Add(1)
			if broken.Load() {
				return nil, errors.New("io error")
			}
			return disk.Get(ctx, key)
		},
		put: func(ctx context.Context, key string, data []byte) error {
			backendOps.Add(1)
			if broken.Load() {
				return errors.New("io error")
			}
			return disk.Put(ctx, key, data)
		},
		inner: disk,
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := New(b, WithHealth(testHealth(clk)))
	ctx := context.Background()
	broken.Store(true)
	// Fail enough distinct keys to trip the breaker. Every request still
	// succeeds with a computed result.
	for i := 0; i < 6; i++ {
		res, _, err := s.Do(ctx, Key("k", fmt.Sprint(i)), func() (*report.Result, error) { return sample(), nil })
		if err != nil || res == nil {
			t.Fatalf("request %d failed under backend errors: %v", i, err)
		}
	}
	if s.Health().State() != StateOpen {
		t.Fatalf("breaker = %s after sustained errors, want open", s.Health().State())
	}
	ops := backendOps.Load()
	res, state, err := s.Do(ctx, Key("bypassed"), func() (*report.Result, error) { return sample(), nil })
	if err != nil || state != StateBypass || res == nil {
		t.Fatalf("bypass Do: state=%v err=%v", state, err)
	}
	if backendOps.Load() != ops {
		t.Error("bypass touched the backend")
	}
	if st := s.Stats(); st.Bypassed == 0 {
		t.Errorf("stats = %+v, want bypassed > 0", st)
	}
	// Backend heals; after cooldown the trial closes the breaker and the
	// store caches again.
	broken.Store(false)
	clk.advance(2 * time.Second)
	key := Key("healed")
	if _, state, err := s.Do(ctx, key, func() (*report.Result, error) { return sample(), nil }); err != nil || state != StateMiss {
		t.Fatalf("trial Do: state=%v err=%v", state, err)
	}
	if s.Health().State() != StateClosed {
		t.Fatalf("breaker = %s after recovery, want closed", s.Health().State())
	}
	if _, state, err := s.Do(ctx, key, func() (*report.Result, error) {
		t.Error("cached entry recomputed after recovery")
		return sample(), nil
	}); err != nil || state != StateHit {
		t.Fatalf("post-recovery read: state=%v err=%v", state, err)
	}
}

// TestFsyncPutSurvivesReopen exercises the Put durability path end to
// end (we cannot crash the kernel in a unit test, but we can prove the
// fsync calls succeed and the rename lands).
func TestFsyncPutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := Key("durable")
	if err := s.Put(ctx, key, sample()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := s2.Get(ctx, key)
	if err != nil || !ok || res.ID != "E01" {
		t.Fatalf("reopened read: ok=%v err=%v", ok, err)
	}
}
