// Package bcc mirrors the pool surface of bcclique/internal/bcc: the
// acquire/release pairs are package-private there, so the fixture
// carries both the pairs and their callers in one package.
package bcc

type messageVector struct{ sends []int }

func (*messageVector) release() {}

type bitPlane struct{ value []uint64 }

func (*bitPlane) release() {}

func (*bitPlane) bind() bool { return true }

type shardGroup struct{ workers int }

func (*shardGroup) release() {}

func acquireVector(n int) *messageVector { return &messageVector{sends: make([]int, n)} }

func acquirePlane(n int) *bitPlane { return &bitPlane{value: make([]uint64, n)} }

func acquireShardGroup(n int) *shardGroup { return &shardGroup{workers: n} }

func takeInts(n int) []int { return make([]int, n) }

func recycleInts(s []int) {}

// leak acquires and never releases: the pool starves.
func leak(n int) {
	mv := acquireVector(n) // want `pooled Message vector from acquireVector does not reach release on every path`
	if mv == nil {
		return
	}
}

// planeLeak releases only when the binding fails.
func planeLeak(n int) {
	p := acquirePlane(n) // want `pooled bit plane from acquirePlane does not reach release on every path`
	if !p.bind() {
		p.release()
	}
}

// groupLeak releases on the sharded arm only.
func groupLeak(n int, sharded bool) {
	sg := acquireShardGroup(n) // want `pooled shard group from acquireShardGroup does not reach release on every path`
	if sharded {
		sg.release()
	}
}

// fieldLeak copies a field out of the group, which hands nothing off.
func fieldLeak(n int) {
	sg := acquireShardGroup(n) // want `pooled shard group from acquireShardGroup does not reach release on every path`
	report(sg.workers)
}

func report(int) {}

// branchLeak recycles on one arm only.
func branchLeak(n int, keep bool) {
	s := takeInts(n) // want `pooled \[\]int from takeInts does not reach recycleInts on every path`
	if keep {
		recycleInts(s)
	} else if s == nil {
		return
	}
}

// deferred releases on every exit: clean.
func deferred(n int) int {
	sg := acquireShardGroup(n)
	defer sg.release()
	return sg.workers
}

// straightLine releases before the only exit: clean.
func straightLine(n int) {
	s := takeInts(n)
	recycleInts(s)
}

// handoff transfers ownership to the caller on success and releases on
// failure: clean (the caller is now accountable).
func handoff(n int) *bitPlane {
	p := acquirePlane(n)
	if p.bind() {
		return p
	}
	p.release()
	return nil
}

// stored transfers ownership into a structure: clean.
func stored(n int) {
	s := takeInts(n)
	sink.ints = s
}

var sink struct{ ints []int }
