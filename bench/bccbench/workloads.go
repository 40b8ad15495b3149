package main

import (
	"fmt"
	"slices"

	"bcclique/internal/parallel"
)

// kind is one request shape. Its URL is the whole input: the load
// generator sends it to bccd, and the replay decodes the same URL into
// the engine calls the handler makes.
type kind struct {
	name  string
	query string // path and query, without the seed
	// cells is the number of CSV rows (one per grid cell) a response
	// carries; 0 for the JSON report.
	cells int
	// warm kinds are primed at set-up at warmSeed and served from the
	// cache afterwards; every other kind is sent at fresh seeds, so all
	// its cells miss.
	warm bool
	// replayK is how many requests of this kind the traced replay runs.
	replayK int
}

func (k *kind) url(seed int64) string { return fmt.Sprintf("%s&seed=%d", k.query, seed) }

// The four request shapes. Sizes were chosen on a 2-core machine:
// COLD is 16 cells × 3 seeds at 0.13–0.4 s a request; LARGE is 4 cells
// at the intra-cell shard threshold (n = 2048) at about 0.4 s; SWEEP is
// the `make sweep` table, 140 cells, about 5.5 s to prime and 3 ms warm;
// REPORT is the quick report (the full E17 report runs the ladder to
// n = 32768 and takes minutes).
var (
	kindCold = &kind{
		name:    "COLD",
		query:   "/v1/sweeps?grid=E17&format=csv&protocols=kt0-exchange,boruvka,sketch-a2,flood-b1&families=two-cycle,grid&sizes=128,512",
		cells:   16,
		replayK: 6,
	}
	kindLarge = &kind{
		name:    "LARGE",
		query:   "/v1/sweeps?grid=E17&format=csv&protocols=kt0-exchange,boruvka,sketch-a2,flood-b1&families=two-cycle&sizes=2048",
		cells:   4,
		replayK: 4,
	}
	kindSweep = &kind{
		name:    "SWEEP",
		query:   "/v1/sweeps?grid=E17&format=csv&sizes=16,32,64,128,256,512,1024",
		cells:   140,
		warm:    true,
		replayK: 50,
	}
	kindReport = &kind{
		name:    "REPORT",
		query:   "/v1/report?only=E07,E13,E17&quick=true&format=json",
		warm:    true,
		replayK: 20,
	}
)

// stream is one client of a phase. Request i is of kind kinds[i %
// len(kinds)].
type stream struct {
	name  string
	kinds []*kind
	// rps > 0 makes an open loop at that rate; 0 a closed loop.
	rps float64
	// conns is the number of concurrent requests; 0 means one per CPU.
	conns int
	// latency marks the stream whose p50 is request_p50_ms; rows the
	// stream whose row rate is rows_per_s.
	latency, rows bool
}

// phase runs its streams side by side for share of the run window.
type phase struct {
	name    string
	share   float64
	streams []stream
}

type workload struct {
	name   string
	prime  []*kind
	phases []phase
}

// workloads is the benchmark's registry, in BENCHMARK.json order. Why
// each exists is stated there and in bench/README.md.
//
// The open-loop rates and mixed's 9:1 SWEEP:REPORT ratio are fixed load
// points, not observed traffic: the repository holds no captured bccd
// request log. sweep-warm's 100 rps is about 30% of the rate its
// closed-loop phase B sustains on 2 CPUs, light enough that its p50 is
// service time rather than queueing. mixed's 40 rps of hits is arbitrary.
var workloads = []*workload{
	{
		name: "sweep-cold",
		phases: []phase{{name: "cold", share: 1, streams: []stream{
			{name: "cold", kinds: []*kind{kindCold}, conns: 1, latency: true, rows: true},
		}}},
	},
	{
		name: "sweep-large",
		phases: []phase{{name: "large", share: 1, streams: []stream{
			{name: "large", kinds: []*kind{kindLarge}, conns: 1, latency: true, rows: true},
		}}},
	},
	{
		name:  "sweep-warm",
		prime: []*kind{kindSweep},
		phases: []phase{
			{name: "A", share: 0.5, streams: []stream{
				{name: "hits", kinds: []*kind{kindSweep}, rps: 100, latency: true},
			}},
			{name: "B", share: 0.5, streams: []stream{
				{name: "rows", kinds: []*kind{kindSweep}, rows: true},
			}},
		},
	},
	{
		name:  "mixed",
		prime: []*kind{kindSweep, kindReport},
		phases: []phase{{name: "mixed", share: 1, streams: []stream{
			{name: "H", kinds: append(slices.Repeat([]*kind{kindSweep}, 9), kindReport), rps: 40, conns: 1, latency: true},
			{name: "M", kinds: []*kind{kindCold}, conns: 1, rows: true},
		}}},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// warmSeed is the seed warm kinds are primed and served at. It is
// fixed: at some seeds the full E17 table holds a cell bccd answers
// with a 500 (kt0-exchange on er-threshold reports a silent wrong
// answer at seeds 6 and 8, n = 128 and 256), and every cell of the
// table is correct at seed 1.
const warmSeed = 1

// requestSeed is the seed of request i of a stream: warm kinds use
// warmSeed, everything else a fresh positive seed derived from the run
// seed, the stream and the index.
func requestSeed(run int64, k *kind, stream, i int) int64 {
	if k.warm {
		return warmSeed
	}
	return int64(uint64(parallel.DeriveSeed(run, stream<<32|i)) >> 1)
}
