package main

import (
	"context"
	"runtime"
	"testing"
	"time"

	"bcclique/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent, name string, from, to int) obs.Record {
		return obs.Record{SpanID: id, ParentID: parent, Name: name, Start: at(from), Duration: at(to).Sub(at(from))}
	}
	recs := []obs.Record{
		span("r", "", "root", 0, 100),
		span("a", "r", "cell", 10, 40),
		span("b", "r", "cell", 30, 60),      // overlaps a: the union covers 10–60
		span("g", "a", "store.get", 15, 25), // nested under a
		span("x", "b", "generate", 55, 70),  // runs past its parent: clipped to 55–60
	}
	got := selfTimes(recs)
	want := map[string]time.Duration{
		"root":      50 * time.Millisecond, // 100 − 50
		"cell":      45 * time.Millisecond, // a: 30 − 10, b: 30 − 5
		"store.get": 10 * time.Millisecond,
		"generate":  15 * time.Millisecond,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, got[name], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

// One replay per kind at quick sizes: rows at one worker match the
// rows at one worker per CPU, and the span tree accounts for all but 5%
// of every request.
func TestReplayQuickKinds(t *testing.T) {
	ctx := context.Background()
	r, err := newReplayer(t.TempDir(), runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	cold := &kind{name: "COLD", cells: 16,
		query: "/v1/sweeps?grid=E17&format=csv&protocols=kt0-exchange,boruvka,sketch-a2,flood-b1&families=two-cycle,grid&sizes=8,16"}
	large := &kind{name: "LARGE", cells: 4,
		query: "/v1/sweeps?grid=E17&format=csv&protocols=kt0-exchange,boruvka,sketch-a2,flood-b1&families=two-cycle&sizes=64"}
	sweep := &kind{name: "SWEEP", cells: 40, warm: true, query: "/v1/sweeps?grid=E17&format=csv&sizes=8,16"}
	rep := &kind{name: "REPORT", warm: true, query: kindReport.query}

	// The reference bodies come from fresh stores at one worker per CPU,
	// as bccd computes them.
	ref := func(k *kind, seed int64) []byte {
		st, err := r.newStore()
		if err != nil {
			t.Fatal(err)
		}
		out, err := execute(ctx, st.eng, k.url(seed))
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if _, err := checkBody(k, out.body); err != nil {
			t.Fatal(err)
		}
		return out.body
	}
	warm := map[*kind][]byte{sweep: ref(sweep, warmSeed), rep: ref(rep, warmSeed)}
	if err := r.primeWarm(ctx, []*kind{sweep, rep}, warm); err != nil {
		t.Fatal(err)
	}
	reqs := []replayReq{
		{cold, cold.url(11), ref(cold, 11)},
		{large, large.url(12), ref(large, 12)},
		{sweep, sweep.url(warmSeed), warm[sweep]},
		{rep, rep.url(warmSeed), warm[rep]},
	}
	res, err := r.pass(ctx, reqs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Error(p)
	}
	m := spanLayers(res, len(reqs))
	if m["obs.unattributed_pct"] > 5 {
		t.Errorf("unattributed %.2f%% > 5%%", m["obs.unattributed_pct"])
	}
	if res.cells != int64(cold.cells+large.cells) {
		t.Errorf("computed %d cells, want %d", res.cells, cold.cells+large.cells)
	}
	if m["bcc.rounds_ms"] <= 0 || m["family.build_ms"] <= 0 || m["results.get_ms"] <= 0 {
		t.Errorf("empty layers in %v", m)
	}
}
