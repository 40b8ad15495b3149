package bcclique_test

import (
	"runtime"
	"sync"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// mallocProbe counts the heap allocations a run's round loop makes: its
// node reads runtime.MemStats.Mallocs when it sends round 2 and again
// when it sends the last round. Between the two reads lie only whole
// rounds of the loop; the run's pool takes and returns happen at bind
// and release, outside them. So the count does not depend on
// sync.Pool, which drops a random share of Puts under -race.
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
// channel-wait caches are primed (primeWaitRecords), and an unchecked
// run warms the loop. A window in which the runtime still started a GC
// cycle or an OS thread (a stop-the-world read can make the scheduler
// want one more, more often on a loaded machine) is measured again:
// both persist, so the runtime's share cannot recur forever, while an
// allocation of the loop's own recurs in every window.
func (p *mallocProbe) check(t *testing.T, run func()) {
	t.Helper()
	runtime.GC()
	primeWaitRecords()
	run()
	const windows = 5
	for i := 0; i < windows; i++ {
		p.reads = 0
		run()
		if p.reads != 2 {
			t.Fatalf("probe node read the allocation count %d times, want 2", p.reads)
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

// primeWaitRecords fills the runtime's caches of channel-wait records
// (sudogs) by parking 512 goroutines on one channel at once and then
// waking them all. A goroutine that parks takes a record from its P's
// cache, and a GC cycle empties the shared overflow cache, so after
// check's collection a P with a dry cache makes the runtime allocate a
// record whenever something parks. That allocation is the runtime's,
// not the loop's, yet it can land inside a window: unprimed, the short
// BitSender window (4096 rounds of a few words each) caught one in 3 of
// 100 runs; primed, none of 100 did.
func primeWaitRecords() {
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
		}()
	}
	parked.Wait()
	close(gate)
	done.Wait()
}

// mallocBitNode is an inert plane node that drives a mallocProbe.
type mallocBitNode struct{ p *mallocProbe }

func (n mallocBitNode) Send(t int) bcc.Message {
	n.p.observe(t)
	return bcc.Bit(1)
}
func (mallocBitNode) Receive(int, []bcc.Message) {}
func (mallocBitNode) BindPlane(int, bool) bool   { return true }
func (n mallocBitNode) SendBit(t int) (uint8, bool) {
	n.p.observe(t)
	return 1, true
}

// senderLoopProbe is a bitLoopProbe that writes each round's plane
// words itself (bcc.BitSender), so the plane never asks its nodes for
// a bit. A non-nil probe is driven from SendBits.
type senderLoopProbe struct {
	bitLoopProbe
	probe *mallocProbe
}

var (
	_ bcc.RunBinder = (*senderLoopProbe)(nil)
	_ bcc.BitSender = (*senderLoopProbe)(nil)
)

func (p *senderLoopProbe) BindRun(*bcc.Instance, int) bcc.BoundRun { return p }
func (p *senderLoopProbe) SendBits(t int, value, spoke []uint64) {
	if p.probe != nil {
		p.probe.observe(t)
	}
	value[0], spoke[0] = 1, 1
}

// TestBitPlaneRoundLoopAllocationFree pins the bit plane's 0-allocs
// steady-state contract the direct way: with node construction
// amortized (preallocated inert nodes) and the arena pools warm, the
// round loop itself (send, plane clear, popcount, delivery) allocates
// nothing between round 2 and the last round, and a whole run's
// allocation count is a small constant. It holds for both senders of a
// bound run: the nodes' SendBit, and the run's own SendBits.
func TestBitPlaneRoundLoopAllocationFree(t *testing.T) {
	const n = 256
	g := graph.New(n)
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(rounds int) float64 {
		probe := &bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
		for i := range probe.nodes {
			probe.nodes[i] = bitLoopNode{}
		}
		// Warm the plane and scratch pools before measuring.
		res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		bcc.Recycle(res)
		return testing.AllocsPerRun(10, func() {
			res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
			if err != nil {
				t.Fatal(err)
			}
			if !res.BitPlane {
				t.Fatal("probe must ride the bit plane")
			}
			bcc.Recycle(res)
		})
	}
	const rounds = 4096
	perRun := allocsAt(rounds)
	probe := &mallocProbe{last: rounds}
	loop := &bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
	for i := range loop.nodes {
		loop.nodes[i] = bitLoopNode{}
	}
	loop.nodes[0] = mallocBitNode{probe}
	probe.check(t, func() {
		res, err := bcc.Run(in, loop, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.BitPlane {
			t.Fatal("probe must ride the bit plane")
		}
		bcc.Recycle(res)
	})
	// The constant itself is the per-run overhead (result struct, node
	// tables, pool misses); a generous bound catches any per-round
	// regression, which would add thousands.
	if perRun > 16 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", perRun)
	}
	sender := &senderLoopProbe{bitLoopProbe: bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}}
	for i := range sender.nodes {
		sender.nodes[i] = bitLoopNode{}
	}
	sendRun := func() {
		res, err := bcc.Run(in, sender, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.BitPlane || res.TotalBits != rounds {
			t.Fatalf("sender probe: bit plane %v, %d bits; want the plane and %d bits", res.BitPlane, res.TotalBits, rounds)
		}
		bcc.Recycle(res)
	}
	sendRun()
	if perRun := testing.AllocsPerRun(10, sendRun); perRun > 16 {
		t.Errorf("BitSender run: per-run allocation constant is %.1f, want a small constant", perRun)
	}
	sender.probe = &mallocProbe{last: rounds}
	sender.probe.check(t, sendRun)
}
