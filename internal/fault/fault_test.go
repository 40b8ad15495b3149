package fault

import (
	"context"
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"bcclique/internal/results"
)

// memBackend is a trivial in-memory results.Backend for decorator tests.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMem() *memBackend { return &memBackend{m: make(map[string][]byte)} }

func (b *memBackend) Get(_ context.Context, key string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	if !ok {
		return nil, results.ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

func (b *memBackend) Put(_ context.Context, key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) Delete(_ context.Context, key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, key)
	return nil
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("error=0.05,latency=0.1:2ms,torn=0.05,enospc=0.01,hang=0.001,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{Seed: 7, ErrorRate: 0.05, LatencyRate: 0.1, Latency: 2 * time.Millisecond,
		TornRate: 0.05, ENOSPCRate: 0.01, HangRate: 0.001}
	if p != want {
		t.Errorf("ParseProfile = %+v, want %+v", p, want)
	}
	if p, err := ParseProfile(""); err != nil || p.enabled() {
		t.Errorf("empty profile: %+v, %v", p, err)
	}
	for _, bad := range []string{"error=2", "error=x", "latency=0.1", "latency=0.1:nope", "bogus=1", "error", "seed=x"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

// TestDeterministic pins the reproducibility contract: two decorators
// with the same profile inject exactly the same faults at the same
// operation indices.
func TestDeterministic(t *testing.T) {
	p := Profile{Seed: 42, ErrorRate: 0.3}
	outcomes := func() []bool {
		b := Wrap(newMem(), p)
		var out []bool
		for i := 0; i < 200; i++ {
			err := b.Put(context.Background(), "k", []byte("0123456789"))
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	errs := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: run A injected=%v, run B injected=%v", i, a[i], b[i])
		}
		if a[i] {
			errs++
		}
	}
	if errs < 20 || errs > 120 {
		t.Errorf("30%% error rate injected %d/200 faults", errs)
	}
	// A different seed draws a different stream.
	p2 := p
	p2.Seed = 43
	b2 := Wrap(newMem(), p2)
	same := 0
	for i := range a {
		err := b2.Put(context.Background(), "k", []byte("0123456789"))
		if (err != nil) == a[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seed 43 injected the identical fault stream as seed 42")
	}
}

func TestInjectedErrorIsTransient(t *testing.T) {
	b := Wrap(newMem(), Profile{ErrorRate: 1})
	err := b.Put(context.Background(), "k", []byte("data"))
	if err == nil || !results.IsTransient(err) {
		t.Fatalf("injected error = %v, want transient", err)
	}
}

func TestENOSPCIsPermanent(t *testing.T) {
	b := Wrap(newMem(), Profile{ENOSPCRate: 1})
	err := b.Put(context.Background(), "k", []byte("data"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if results.IsTransient(err) {
		t.Error("ENOSPC must classify permanent")
	}
}

// TestTornWrite pins the crash model: the Put reports success, the
// stored bytes are half the envelope, and a read through the store's
// verification rejects them as corrupt.
func TestTornWrite(t *testing.T) {
	mem := newMem()
	b := Wrap(mem, Profile{TornRate: 1})
	blob := results.EncodeEnvelope([]byte(`{"id":"E01"}`))
	if err := b.Put(context.Background(), "k", blob); err != nil {
		t.Fatalf("torn Put must report success, got %v", err)
	}
	stored, err := mem.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(blob)/2 {
		t.Fatalf("stored %d bytes, want %d", len(stored), len(blob)/2)
	}
	if _, err := results.DecodeEnvelope(stored); !errors.Is(err, results.ErrCorrupt) {
		t.Fatalf("decode of torn entry = %v, want ErrCorrupt", err)
	}
}

func TestHangUntilCancel(t *testing.T) {
	b := Wrap(newMem(), Profile{HangRate: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Put(ctx, "k", []byte("data")) }()
	select {
	case err := <-done:
		t.Fatalf("hang fault returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hang fault returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang fault ignored cancellation")
	}
}

func TestLatency(t *testing.T) {
	b := Wrap(newMem(), Profile{LatencyRate: 1, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := b.Put(context.Background(), "k", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("latency fault delayed only %v", d)
	}
}

// TestRetryBeatsInjectedErrors is the integration the chaos harness
// relies on: a retry decorator over a faulty backend turns a sub-rate
// of transient failures back into successes.
func TestRetryBeatsInjectedErrors(t *testing.T) {
	faulty := Wrap(newMem(), Profile{Seed: 7, ErrorRate: 0.2})
	r := results.WithRetry(faulty, results.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}, 7)
	for i := 0; i < 100; i++ {
		if err := r.Put(context.Background(), "k", []byte("0123456789")); err != nil {
			t.Fatalf("op %d: retry failed to absorb a 20%% error rate: %v", i, err)
		}
	}
	if r.Retries() == 0 {
		t.Error("no retries recorded against a 20% error rate")
	}
}
