package bcclique_test

import (
	"context"
	"runtime/debug"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/family"
	"bcclique/internal/protocol"
)

// --- Memory benchmarks (BENCH_memory.json baseline) -------------------
//
// The Memory* group records bytes/op per protocol×size cell: one full
// sweep-cell execution (instance construction + simulation + ground
// truth) per op, family build amortized out. These are the numbers the
// shared-substrate memory model is gated on — `make bench-memory`
// refreshes BENCH_memory.json and `make bench-compare` fails if a cell's
// bytes/op or allocs/op regress beyond tolerance.

// benchmarkMemoryCell runs one protocol×family×size sweep cell per op.
func benchmarkMemoryCell(b *testing.B, proto, fam string, n int) {
	b.Helper()
	p, ok := protocol.Lookup(proto)
	if !ok {
		b.Fatalf("%s protocol missing", proto)
	}
	f, ok := family.Lookup(fam)
	if !ok {
		b.Fatalf("%s family missing", fam)
	}
	g, err := f.Build(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed run fills the protocol's pooled arenas, and GC stays
	// off for the timed loop: a collection mid-loop would drop a pooled
	// arena for the next run to allocate afresh, so B/op would depend on
	// GC timing. The gate reads the steady state instead.
	if _, err := p.Run(context.Background(), g, 1); err != nil {
		b.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(context.Background(), g, 1)
		if err != nil {
			b.Fatal(err)
		}
		if out.Verdict != bcc.VerdictYes && out.Verdict != bcc.VerdictNo {
			b.Fatal("cell must reach a verdict")
		}
	}
}

func BenchmarkMemoryBoruvkaTwoCycle1024(b *testing.B) {
	benchmarkMemoryCell(b, "boruvka", "two-cycle", 1024)
}

// BenchmarkMemoryBoruvkaTwoCycle4096 is the acceptance cell for the
// shared-substrate refactor: bytes/op must be ≥4× below the replicated
// per-node merge state it replaces.
func BenchmarkMemoryBoruvkaTwoCycle4096(b *testing.B) {
	benchmarkMemoryCell(b, "boruvka", "two-cycle", 4096)
}

func BenchmarkMemoryKT0ExchangeOneCycle1024(b *testing.B) {
	benchmarkMemoryCell(b, "kt0-exchange", "one-cycle", 1024)
}

func BenchmarkMemoryKT0ExchangeOneCycle2048(b *testing.B) {
	benchmarkMemoryCell(b, "kt0-exchange", "one-cycle", 2048)
}

func BenchmarkMemorySketchA2TwoCycle512(b *testing.B) {
	benchmarkMemoryCell(b, "sketch-a2", "two-cycle", 512)
}

func BenchmarkMemoryFloodB1OneCycle1024(b *testing.B) {
	benchmarkMemoryCell(b, "flood-b1", "one-cycle", 1024)
}

func BenchmarkMemoryFloodB1OneCycle4096(b *testing.B) {
	benchmarkMemoryCell(b, "flood-b1", "one-cycle", 4096)
}
