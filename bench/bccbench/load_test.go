package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRankAndRefusal(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n, p    int
		want    float64
		refused bool
	}{
		{20, 50, 10, false}, // rank 10, 10 beyond
		{19, 50, 0, true},   // rank 10, 9 beyond
		{1000, 99, 990, false},
		{999, 99, 0, true}, // rank 990, 9 beyond
		{100, 90, 90, false},
		{1, 100, 0, true},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.refused {
			if err == nil {
				t.Errorf("p%d of %d: got %v, want a refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%d of %d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if v, beyond := nearestRank(seq(5), 50); v != 3 || beyond != 2 {
		t.Errorf("nearestRank p50 of 5 = %v, %d beyond; want 3, 2", v, beyond)
	}
}

// manualClock only moves when the test moves it.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) clock() clock {
	return clock{
		now: func() time.Time {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.now
		},
		sleep: c.advance,
	}
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// An open loop times each request from when it was due, so a stall
// also charges the request queued behind it; a closed loop times from
// the send.
func TestDriveTimesOpenLoopFromDueTime(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			arrived <- struct{}{}
			<-release
		}
	}))
	defer srv.Close()

	mc := &manualClock{now: time.Unix(0, 0)}
	go func() {
		<-arrived
		mc.advance(100 * time.Millisecond) // the first request stalls 100 ms
		close(release)
	}()
	// 100 rps for 20 ms: two requests, due at 0 and 10 ms, on one worker.
	shots, wall := drive(context.Background(), mc.clock(), 20*time.Millisecond, 100, 1, func(int) response {
		return get(context.Background(), srv.Client(), srv.URL)
	})
	if len(shots) != 2 {
		t.Fatalf("got %d shots, want 2", len(shots))
	}
	if shots[0].latency != 100*time.Millisecond || shots[1].latency != 90*time.Millisecond {
		t.Errorf("latencies %v, %v; want 100ms and 90ms (the second waited from its due time)", shots[0].latency, shots[1].latency)
	}
	if shots[0].lag != 0 || shots[1].lag != 0 {
		t.Errorf("lags %v, %v; want 0: the worker was busy, not late", shots[0].lag, shots[1].lag)
	}
	if wall != 100*time.Millisecond {
		t.Errorf("wall %v, want 100ms", wall)
	}

	// Closed loop: each request takes 30 ms from its send; they go out
	// at 0 and 30 ms, and at 60 ms the 50 ms window has closed.
	mc2 := &manualClock{now: time.Unix(0, 0)}
	shots, _ = drive(context.Background(), mc2.clock(), 50*time.Millisecond, 0, 1, func(int) response {
		mc2.advance(30 * time.Millisecond)
		return response{code: http.StatusOK}
	})
	if len(shots) != 2 || shots[0].latency != 30*time.Millisecond || shots[1].latency != 30*time.Millisecond {
		t.Errorf("closed loop shots %+v, want two of 30ms", shots)
	}
}
