package bcclique_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// mallocProbe counts the heap allocations a run's round loop makes: a
// probe node (on the bit plane, the run's SendBits) reads
// runtime.MemStats.Mallocs when it sends round 2 and again when it
// sends the last round. Between the two reads lie only whole rounds of
// the loop; the run's pool takes and returns happen at bind and
// release, outside them. So the count does not depend on sync.Pool,
// which drops a random share of Puts under -race.
type mallocProbe struct {
	last  int
	reads int
	at    [2]probeRead
	stats runtime.MemStats
}

// probeRead is one read: the heap allocations so far, and how many GC
// cycles and OS threads the runtime has started.
type probeRead struct {
	mallocs uint64
	gcs     uint32
	threads int
}

func (p *mallocProbe) observe(round int) {
	if round == 2 || round == p.last {
		runtime.ReadMemStats(&p.stats)
		threads, _ := runtime.ThreadCreateProfile(nil)
		p.at[p.reads%2] = probeRead{p.stats.Mallocs, p.stats.NumGC, threads}
		p.reads++
	}
}

// check fails t if run's round loop allocated between round 2 and the
// last round. The runtime's own allocations are kept out of that
// window. A collection comes first, so that no GC cycle starts inside
// it; the runs below allocate too little to start one. Then the
// runtime's channel-wait caches and timer heaps are primed
// (primeRuntimeCaches), and an unchecked run warms the loop. A window
// in which the runtime still started a GC cycle or an OS thread (a
// stop-the-world read can make the scheduler want one more, more often
// on a loaded machine) is measured again: both persist, so the
// runtime's share cannot recur forever, while an allocation of the
// loop's own recurs in every window.
func (p *mallocProbe) check(t *testing.T, run func()) {
	t.Helper()
	runtime.GC()
	primeRuntimeCaches()
	run()
	const windows = 5
	for i := 0; i < windows; i++ {
		p.reads = 0
		run()
		if p.reads != 2 {
			t.Fatalf("the probe read the allocation count %d times, want 2", p.reads)
		}
		first, last := p.at[0], p.at[1]
		if last.gcs != first.gcs || last.threads != first.threads {
			continue
		}
		if last.mallocs != first.mallocs {
			t.Errorf("the round loop allocated %d times between round 2 and round %d", last.mallocs-first.mallocs, p.last)
		}
		return
	}
	t.Fatalf("the runtime started a GC cycle or an OS thread inside each of %d windows", windows)
}

// primeRuntimeCaches fills two runtime caches whose refills are the
// runtime's allocations, not the loop's, yet can land inside a window.
//
// The caches of channel-wait records (sudogs): it parks 512 goroutines
// on one channel at once and then wakes them all. A goroutine that
// parks takes a record from its P's cache, and a GC cycle empties the
// shared overflow cache, so after check's collection a P with a dry
// cache makes the runtime allocate a record whenever something parks.
// Unprimed, the short bit-plane window (4096 rounds of a few words
// each) caught one in 3 of 100 runs; primed, none of 100 did.
//
// The P's timer heaps: each woken goroutine then sleeps, so every P's
// heap grows to hold many timers and keeps that capacity.
// testing.AllocsPerRun sets GOMAXPROCS to 1 and back, which drops the
// second P's heap, and the next timer added there (the background
// scavenger's, as it goes back to sleep) appends to an empty heap: one
// 16-byte allocation. Under -race that landed inside the window in 19
// of 900 runs unprimed, and in none of 900 primed.
func primeRuntimeCaches() {
	const goroutines = 512
	var parked, done sync.WaitGroup
	gate := make(chan struct{})
	parked.Add(goroutines)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			parked.Done()
			<-gate
			time.Sleep(time.Microsecond)
		}()
	}
	parked.Wait()
	close(gate)
	done.Wait()
}

// TestBitPlaneRoundLoopAllocationFree pins the bit plane's 0-allocs
// steady-state contract the direct way: with node construction
// amortized (preallocated inert nodes) and the arena pools warm, the
// round loop itself (plane clear, the run's SendBits, popcount,
// HearBits) allocates nothing between round 2 and the last round, and
// a whole run's allocation count is a small constant.
func TestBitPlaneRoundLoopAllocationFree(t *testing.T) {
	const n, rounds = 256, 4096
	g := graph.New(n)
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	loop := &bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
	for i := range loop.nodes {
		loop.nodes[i] = bitLoopNode{}
	}
	run := func() {
		res, err := bcc.Run(in, loop, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.BitPlane || res.TotalBits != n*rounds {
			t.Fatalf("probe: bit plane %v, %d bits; want the plane and %d bits", res.BitPlane, res.TotalBits, n*rounds)
		}
		bcc.Recycle(res)
	}
	// Warm the plane and scratch pools before measuring.
	run()
	// The constant itself is the per-run overhead (result struct, node
	// tables, pool misses); a generous bound catches any per-round
	// regression, which would add thousands.
	if perRun := testing.AllocsPerRun(10, run); perRun > 16 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", perRun)
	}
	loop.probe = &mallocProbe{last: rounds}
	loop.probe.check(t, run)
}
