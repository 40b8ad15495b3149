package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a manual one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// response is what the generator keeps of one request.
type response struct {
	code  int
	cache string // X-Cache-State
	body  []byte
	err   error
	// Set by the caller's checks: rows delivered, and whether every
	// check passed.
	rows int
	ok   bool
}

// shot is one issued request with its timing.
type shot struct {
	index int
	response
	// latency runs from the request's due time to the end of its body.
	latency time.Duration
	// lag is how late a free worker issued a due request: it measures
	// the generator, not the server.
	lag time.Duration
	// scale takes latency to the reference speed; the caller sets it.
	scale float64
}

// drive issues requests on conns workers until the window closes and
// returns the shots in index order with the time from the start to the
// last completion.
//
// rps > 0 is an open loop: request i is due at start + i/rps whatever
// the server is doing, and its latency counts from that due time, so a
// stall also charges the requests queued behind it. rps == 0 is a
// closed loop: each worker sends its next request when its previous one
// returns, and latency counts from the send. Requests in flight when
// the window closes run to completion.
func drive(ctx context.Context, clk clock, window time.Duration, rps float64, conns int, do func(i int) response) ([]shot, time.Duration) {
	start := clk.now()
	end := start.Add(window)
	var interval time.Duration
	total := -1 // closed loop: unbounded, ends with the window
	if rps > 0 {
		interval = time.Duration(float64(time.Second) / rps)
		total = int(window / interval)
	}
	var (
		mu    sync.Mutex
		shots []shot
		last  = start
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				free := clk.now()
				due := free
				if total >= 0 {
					if i >= total {
						return
					}
					due = start.Add(time.Duration(i) * interval)
					if d := due.Sub(free); d > 0 {
						clk.sleep(d)
					}
				} else if !free.Before(end) {
					return
				}
				sent := clk.now()
				lag := sent.Sub(due)
				if free.After(due) {
					lag = sent.Sub(free)
				}
				r := do(i)
				done := clk.now()
				mu.Lock()
				shots = append(shots, shot{index: i, response: r, latency: done.Sub(due), lag: lag})
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(shots, func(a, b int) bool { return shots[a].index < shots[b].index })
	return shots, last.Sub(start)
}

// get sends one GET and reads the whole body.
func get(ctx context.Context, c *http.Client, url string) response {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return response{err: err}
	}
	resp, err := c.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{code: resp.StatusCode, cache: resp.Header.Get("X-Cache-State"), body: body, err: err}
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// nearestRank returns the p-th percentile (1 ≤ p ≤ 100) of sorted by
// the nearest-rank method, and how many samples lie beyond it.
func nearestRank(sorted []float64, p int) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// percentile is nearestRank that refuses an estimate with fewer than
// minBeyond samples beyond it.
func percentile(sorted []float64, p int) (float64, error) {
	v, beyond := nearestRank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
