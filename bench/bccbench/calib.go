package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The host this benchmark was sized on is a shared 2-vCPU VM whose speed
// drifts by a quarter or more over minutes as other tenants load the
// physical cores. bccd's CPU time per request drifts with its wall time,
// so the cores themselves run slower, not just less often. Set-up and
// every slice of a window are therefore bracketed by a reference
// workload, fixed code that depends on nothing in the repository, and
// the wall-clock metrics are scaled to the speed at which the reference
// takes referenceNominal. Both commits of a comparison run the same
// reference, so the scaling removes the host's drift and keeps the
// program's own changes.

// referenceNominal is about the reference workload's time on that VM
// when it was quiet; it took 140–300 ms while other tenants were busy.
// Scaled metrics read as if measured at that speed.
const referenceNominal = 125 * time.Millisecond

// sliceLen is how long the load runs between two references.
const sliceLen = 2500 * time.Millisecond

// reference is the reference workload: the kinds of work bccd does, in
// fixed code. Each kernel runs on one goroutine and then on one
// goroutine per CPU, so it meets the same contention as bccd, which fans
// out over every CPU.
type reference struct {
	procs int
	files []string
	mu    sync.Mutex
	err   error // the store kernel's first failed read
}

// referenceFiles is how many small files the store kernel reads.
const referenceFiles = 64

// newReference writes the store kernel's files into dir.
func newReference(dir string, procs int) (*reference, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &reference{procs: procs}
	for i := range referenceFiles {
		p := filepath.Join(dir, fmt.Sprintf("entry-%d", i))
		row := fmt.Sprintf("two-cycle,%d,flood-b1,%d,3/3\n", 16<<(i%8), i)
		if err := os.WriteFile(p, []byte(strings.Repeat(row, 40)), 0o644); err != nil {
			return nil, err
		}
		r.files = append(r.files, p)
	}
	return r, nil
}

// run runs the reference workload once and returns its wall time.
func (r *reference) run() (time.Duration, error) {
	t0 := time.Now()
	for _, k := range []func(){aluKernel, graphKernel, r.storeKernel} {
		k()
		onEach(r.procs, k)
	}
	d := time.Since(t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return 0, fmt.Errorf("reference workload: %w", r.err)
	}
	return d, nil
}

// scaleBetween is the factor that takes a time measured between two
// references to the nominal speed.
func scaleBetween(a, b time.Duration) float64 {
	return float64(2*referenceNominal) / float64(a+b)
}

func onEach(n int, f func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// referenceSink keeps the kernels' results live.
var referenceSink struct {
	sync.Mutex
	v uint64
}

func keep(v uint64) {
	referenceSink.Lock()
	referenceSink.v += v
	referenceSink.Unlock()
}

// aluKernel is a xorshift loop with a popcount and a data-dependent
// branch: integer work with no memory traffic.
func aluKernel() {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += uint64(bits.OnesCount64(x))
		if x&3 == 0 {
			acc ^= x
		}
	}
	keep(acc)
}

// graphKernel builds a random multigraph in adjacency lists, counts keys
// in a map and walks the graph breadth first: allocation, hashing and
// cache misses, as in building and running a cell.
func graphKernel() {
	const n = 1 << 14
	x := uint64(12345)
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for rep := 0; rep < 2; rep++ {
		adj := make([][]int32, n)
		for e := 0; e < 8*n; e++ {
			a, b := int32(next()%n), int32(next()%n)
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		counts := make(map[uint64]int32, 1024)
		for e := 0; e < 4*n; e++ {
			counts[next()%(2*n)]++
		}
		seen := make([]bool, n)
		queue := []int32{0}
		seen[0] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		keep(uint64(len(counts)))
	}
}

// storeKernel reads small files, hashes them and round-trips a record
// through JSON: system calls, the page cache and codec work, as in a
// warm store get.
func (r *reference) storeKernel() {
	type record struct {
		Key  string            `json:"key"`
		Sum  []byte            `json:"sum"`
		Rows []string          `json:"rows"`
		Meta map[string]string `json:"meta"`
	}
	for rep := 0; rep < 8; rep++ {
		for _, p := range r.files {
			data, err := os.ReadFile(p)
			if err != nil {
				r.mu.Lock()
				r.err = err
				r.mu.Unlock()
				return
			}
			sum := sha256.Sum256(data)
			in := record{Key: p, Sum: sum[:], Rows: strings.SplitN(string(data), "\n", 8), Meta: map[string]string{"alg": "sha256"}}
			enc, _ := json.Marshal(in) // a record of strings and bytes always encodes
			var out record
			_ = json.Unmarshal(enc, &out) // decodes what Marshal wrote
			keep(uint64(len(out.Rows)))
		}
	}
}
