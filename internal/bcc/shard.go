package bcc

import (
	"sync"
	"sync/atomic"

	"bcclique/internal/parallel"
)

// Intra-cell replica parallelism: at large n one cell dominates a sweep
// and RunGrid's cell-level fan-out has nothing left to parallelize, so
// the runner shards the replicas of a single round's send phase across
// helper goroutines. Every run's send phase goes through a shardGroup:
// an unbound run, or a bound one below the threshold, is the one-shard
// case, drained by the calling goroutine with no helpers. Send phases
// are embarrassingly parallel (each replica writes only its own state
// and its own slot of the medium); the barrier at the end of the phase
// precedes the round's one hearing on the calling goroutine, which
// preserves the round-synchronous semantics, and shard→replica
// assignment is a fixed function of the index, so outputs are
// bit-identical at every worker count. Helper goroutines come out of
// the same process-wide parallel.Acquire budget as RunGrid's workers: a
// machine-wide limit of L means at most L simulation goroutines no
// matter how the cell-level and intra-cell layers split them.

// shardSize is the number of replicas per shard. It is a multiple of 64
// so shard boundaries are word-aligned on the bit plane: concurrent
// shards never touch the same spoke/value word.
const shardSize = 256

// defaultIntraCellMinN is the smallest instance size that engages
// intra-cell sharding. Below it the per-phase synchronization costs
// more than the parallelism recovers.
const defaultIntraCellMinN = 2048

// intraCellMinN overrides the engagement threshold; 0 means the
// default. Tests force tiny-n parallel runs through SetIntraCellMinN.
var intraCellMinN atomic.Int64

// SetIntraCellMinN sets the smallest n at which runs of run-bound
// algorithms shard their send phases across helper goroutines, returning
// the previous threshold. n <= 0 restores the default. The equivalence
// suite uses it to drive small instances down the parallel path.
func SetIntraCellMinN(n int) int {
	prev := intraCellThreshold()
	if n <= 0 {
		intraCellMinN.Store(0)
	} else {
		intraCellMinN.Store(int64(n))
	}
	return prev
}

func intraCellThreshold() int {
	if v := intraCellMinN.Load(); v > 0 {
		return int(v)
	}
	return defaultIntraCellMinN
}

// intraShardsInFlight counts shards currently executing across all
// in-process runs — the /metrics gauge operators watch to see an xl
// cell claim the machine.
var intraShardsInFlight atomic.Int64

// IntraCellShardsInFlight reports how many intra-cell shards are
// executing right now across every run in the process.
func IntraCellShardsInFlight() int64 { return intraShardsInFlight.Load() }

// shardGroup runs one run's send phases over fixed replica shards: the
// calling goroutine plus up to numShards-1 helpers drain an atomic
// shard cursor. Groups are pooled and their workers are started once
// per run and parked on a channel between phases, so the steady-state
// round loop allocates nothing and a one-shard run allocates nothing
// at all. A one-shard run calls its medium directly and writes no group
// state per phase: writing the small per-phase fields made concurrent
// one-shard runs measurably slower, likely through false sharing.
type shardGroup struct {
	m         medium
	n         int
	numShards int
	workers   int
	round     int
	bits      []int
	errs      []error
	next      atomic.Int64
	start     chan struct{}
	phaseWG   sync.WaitGroup
	exitWG    sync.WaitGroup
}

var shardGroupPool = sync.Pool{New: func() interface{} { return new(shardGroup) }}

// acquireShardGroup returns a group driving m over n replicas. A
// sharded group splits them into shardSize shards and reserves helpers
// from the process-wide budget; with zero available slots it still
// works, every phase degrading to the sequential loop on the caller.
// An unsharded group is one shard of n replicas and no helpers.
func acquireShardGroup(m medium, n int, sharded bool) *shardGroup {
	sg := shardGroupPool.Get().(*shardGroup)
	sg.m, sg.n, sg.numShards = m, n, 1
	if sharded {
		sg.numShards = (n + shardSize - 1) / shardSize
	}
	if cap(sg.bits) < sg.numShards {
		sg.bits = make([]int, sg.numShards)
		sg.errs = make([]error, sg.numShards)
	}
	sg.bits, sg.errs = sg.bits[:sg.numShards], sg.errs[:sg.numShards]
	sg.workers = parallel.Acquire(min(sg.numShards, parallel.Limit()) - 1)
	if sg.workers > 0 {
		sg.start = make(chan struct{})
		sg.exitWG.Add(sg.workers)
		for i := 0; i < sg.workers; i++ {
			go func() {
				defer sg.exitWG.Done()
				for range sg.start {
					sg.drain()
					sg.phaseWG.Done()
				}
			}()
		}
	}
	return sg
}

// send runs round t's send phase over every shard and returns after the
// last one completes — the barrier before the round is heard — with the
// round's bit total. The returned error is the lowest-shard error, so
// failures are deterministic at every worker count and name the vertex
// the one-shard loop would.
func (sg *shardGroup) send(t int) (int, error) {
	if sg.numShards == 1 {
		return sg.m.send(t, 0, sg.n)
	}
	sg.round = t
	sg.next.Store(0)
	if sg.workers > 0 {
		sg.phaseWG.Add(sg.workers)
		for i := 0; i < sg.workers; i++ {
			sg.start <- struct{}{}
		}
	}
	sg.drain()
	sg.phaseWG.Wait()
	bits := 0
	for s, err := range sg.errs {
		if err != nil {
			return 0, err
		}
		bits += sg.bits[s]
	}
	return bits, nil
}

// drain claims shards off the cursor until none remain. Shard s always
// covers replicas [s*shardSize, min(n, (s+1)*shardSize)) regardless of
// which goroutine claims it.
func (sg *shardGroup) drain() {
	for {
		s := int(sg.next.Add(1)) - 1
		if s >= sg.numShards {
			return
		}
		intraShardsInFlight.Add(1)
		first := s * shardSize
		limit := min(first+shardSize, sg.n)
		sg.bits[s], sg.errs[s] = sg.m.send(sg.round, first, limit)
		intraShardsInFlight.Add(-1)
	}
}

// release retires the workers, returns their slots to the global
// budget, and pools the group without its medium.
func (sg *shardGroup) release() {
	if sg.workers > 0 {
		close(sg.start)
		sg.exitWG.Wait()
		parallel.Release(sg.workers)
	}
	sg.m = nil
	shardGroupPool.Put(sg)
}
