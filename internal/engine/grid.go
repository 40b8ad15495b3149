package engine

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

// GridCell is one point of a sweep grid: a protocol × family × size
// combination plus the seed count its measurement averages over.
type GridCell struct {
	Index    int    `json:"index"`
	Protocol string `json:"protocol"`
	Family   string `json:"family"`
	N        int    `json:"n"`
	Seeds    int    `json:"seeds"`
}

// String renders the cell for events and errors.
func (c GridCell) String() string {
	return fmt.Sprintf("%s×%s@n=%d", c.Protocol, c.Family, c.N)
}

// GridSpec is the declarative description of one sweep grid: a
// protocol × family × size × seed-count product whose cells are
// measured independently, cached independently (see Engine.RunGrid),
// and assembled into one table in deterministic cell order. Like Spec,
// everything but the two functions is data; the engine registers each
// grid as a synthesized Spec too, so grids appear in /v1/specs, reports
// and jobs exactly like scalar experiments.
type GridSpec struct {
	ID       string
	Title    string
	PaperRef string
	// Version invalidates every cached cell (and the grid's own spec
	// entry) when cell logic changes without any declared parameter
	// changing. Bump it in the same commit as the logic change.
	Version int
	Claim   string
	Caption string

	// Protocols and Families are the axis values, by registry name.
	Protocols []string
	Families  []string
	// Sizes is the instance-size axis (QuickSizes under Config.Quick;
	// nil = Sizes).
	Sizes      []int
	QuickSizes []int
	// SizeCaps declares feasibility ceilings: a protocol listed here
	// gets no cells with N above its cap, letting one grid carry a size
	// ladder that only its scalable protocols climb (e.g. the sketch
	// protocol's per-replica decode is Θ(n) per heard sketch, so its
	// cells stop where the ladder would take CPU-hours). A key may also
	// be scoped to one family as "protocol@family", capping only that
	// pair — the honest ceiling for a protocol whose cost is
	// density-driven (flood reconstructs the whole input, so it climbs
	// a sparse ladder to the top but must stop early on the Θ(n²)-edge
	// barbell). When both a protocol cap and a scoped cap apply, the
	// lower one wins. Caps are part of the grid's declared axes — they
	// change the synthesized spec key, never a surviving cell's content
	// address.
	SizeCaps map[string]int
	// Seeds is the per-cell seed count (QuickSeeds under Config.Quick;
	// 0 = Seeds).
	Seeds      int
	QuickSeeds int

	// Headers are the columns of the assembled table; RunCell returns
	// one row with exactly these columns.
	Headers []string

	// CellKey returns the canonical encoding of the two axis values —
	// typically the protocol's and family's own cache keys — so a cell's
	// content address survives grid recomposition (adding a size or
	// family recomputes only new cells) and changes whenever either
	// axis's declared parameters change.
	CellKey func(protocol, family string) (string, error)
	// RunCell measures one cell: it must derive all randomness from the
	// given seeds and return one table row. Rows must be bit-identical
	// at any worker count. The context is the sweep's cancellation
	// signal; cells must pass it into bcc.RunContext so a cancelled
	// sweep stops mid-cell, within one simulated round.
	RunCell func(ctx context.Context, cfg Config, cell GridCell, seeds []int64) ([]string, error)
	// Summarize renders the result's Finding from the assembled rows
	// (nil = a generic cell-count summary).
	Summarize func(rows [][]string) string
}

// ResolvedSizes returns the size axis for cfg.
func (g GridSpec) ResolvedSizes(cfg Config) []int {
	if cfg.Quick && g.QuickSizes != nil {
		return g.QuickSizes
	}
	return g.Sizes
}

// SeedCount returns the per-cell seed count for cfg.
func (g GridSpec) SeedCount(cfg Config) int {
	if cfg.Quick && g.QuickSeeds != 0 {
		return g.QuickSeeds
	}
	return g.Seeds
}

// capFor resolves the effective size ceiling for one (protocol, family)
// pair: the lower of the protocol-wide cap and the family-scoped
// "protocol@family" cap, if either is declared.
func (g GridSpec) capFor(proto, fam string) (int, bool) {
	ceiling, capped := g.SizeCaps[proto]
	if scoped, ok := g.SizeCaps[proto+"@"+fam]; ok && (!capped || scoped < ceiling) {
		ceiling, capped = scoped, true
	}
	return ceiling, capped
}

// Cells enumerates the grid in deterministic cell order —
// family-major, then protocol, then size, so each (family, protocol)
// cost curve is contiguous in the assembled table. Sizes above a
// (protocol, family) pair's declared SizeCaps ceiling are skipped.
func (g GridSpec) Cells(cfg Config) []GridCell {
	sizes := g.ResolvedSizes(cfg)
	seeds := g.SeedCount(cfg)
	cells := make([]GridCell, 0, len(g.Families)*len(g.Protocols)*len(sizes))
	for _, fam := range g.Families {
		for _, proto := range g.Protocols {
			ceiling, capped := g.capFor(proto, fam)
			for _, n := range sizes {
				if capped && n > ceiling {
					continue
				}
				cells = append(cells, GridCell{
					Index: len(cells), Protocol: proto, Family: fam, N: n, Seeds: seeds,
				})
			}
		}
	}
	return cells
}

// axes canonically encodes the non-numeric axes for the synthesized
// spec's Params.Extra, so recomposing a grid (including its feasibility
// ceilings) changes its spec key.
func (g GridSpec) axes() string {
	caps := ""
	if len(g.SizeCaps) > 0 {
		names := make([]string, 0, len(g.SizeCaps))
		for name := range g.SizeCaps {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s<=%d", name, g.SizeCaps[name])
		}
		caps = ";caps=" + strings.Join(parts, ",")
	}
	return fmt.Sprintf("grid{protocols=%s;families=%s%s}",
		strings.Join(g.Protocols, ","), strings.Join(g.Families, ","), caps)
}

// Restrict returns a copy of the grid narrowed to the given axis
// subsets (nil keeps an axis unchanged). Protocol and family names must
// come from the grid; sizes may be arbitrary — cell caching is
// per-cell, so a narrowed smoke run shares cache entries with the full
// grid. QuickSizes collapse onto an explicit size override.
func (g GridSpec) Restrict(protocols, families []string, sizes []int) (GridSpec, error) {
	pick := func(subset, axis []string, what string) ([]string, error) {
		if subset == nil {
			return axis, nil
		}
		for _, want := range subset {
			found := false
			for _, have := range axis {
				if want == have {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("grid %s: unknown %s %q (grid has %s)",
					g.ID, what, want, strings.Join(axis, ", "))
			}
		}
		return append([]string(nil), subset...), nil
	}
	var err error
	if g.Protocols, err = pick(protocols, g.Protocols, "protocol"); err != nil {
		return GridSpec{}, err
	}
	if g.Families, err = pick(families, g.Families, "family"); err != nil {
		return GridSpec{}, err
	}
	if sizes != nil {
		g.Sizes = append([]int(nil), sizes...)
		g.QuickSizes = nil
	}
	return g, nil
}

// JSONLSink returns a RunGrid sink that streams each row as one JSON
// object {"grid","index","cells":{header: value}} — the shared jsonl
// shape of the bccd /v1/sweeps endpoint and `experiments -sweep`.
func (g GridSpec) JSONLSink(w io.Writer) func(GridCell, []string) error {
	enc := json.NewEncoder(w)
	return func(c GridCell, row []string) error {
		cells := make(map[string]string, len(g.Headers))
		for i, h := range g.Headers {
			cells[h] = row[i]
		}
		return enc.Encode(struct {
			Grid  string            `json:"grid"`
			Index int               `json:"index"`
			Cells map[string]string `json:"cells"`
		}{g.ID, c.Index, cells})
	}
}

// CSVSink writes the header record (buffered until the first row) and
// returns a RunGrid sink that streams one CSV record per row — each row
// is flushed through to w as it completes, so slow grids deliver rows
// incrementally instead of in 4 KiB bufio batches — plus a final flush
// to call (and check) once the run finishes.
func (g GridSpec) CSVSink(w io.Writer) (sink func(GridCell, []string) error, flush func() error, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(g.Headers); err != nil {
		return nil, nil, err
	}
	return func(_ GridCell, row []string) error {
			if err := cw.Write(row); err != nil {
				return err
			}
			cw.Flush()
			return cw.Error()
		},
		func() error { cw.Flush(); return cw.Error() },
		nil
}

// validate rejects a misdeclared grid at registration time: a SizeCaps
// key that names no protocol (or, for "protocol@family" scoped keys, no
// family) of the grid would silently disable the ceiling it was meant
// to enforce (the capped protocol climbs the whole ladder), and a cap
// below the smallest size would silently erase the protocol — or the
// scoped pair — from the grid.
func (g GridSpec) validate() error {
	// The cap must clear the smallest size of EACH ladder — a cap below
	// only the quick ladder would erase the protocol from quick/CI runs,
	// the hardest variant of the silence to notice.
	minOf := func(axis []int) (int, bool) {
		if len(axis) == 0 {
			return 0, false
		}
		low := axis[0]
		for _, n := range axis[1:] {
			if n < low {
				low = n
			}
		}
		return low, true
	}
	for name, ceiling := range g.SizeCaps {
		proto, fam, scoped := strings.Cut(name, "@")
		found := false
		for _, p := range g.Protocols {
			if p == proto {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("grid %s: size cap for %q names no protocol of the grid", g.ID, name)
		}
		if scoped {
			found = false
			for _, f := range g.Families {
				if f == fam {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("grid %s: size cap for %q names no family of the grid", g.ID, name)
			}
		}
		for _, axis := range [][]int{g.Sizes, g.QuickSizes} {
			if low, ok := minOf(axis); ok && ceiling < low {
				return fmt.Errorf("grid %s: size cap %d for %q is below the smallest size %d of a ladder", g.ID, ceiling, name, low)
			}
		}
	}
	return nil
}

// spec synthesizes the registry entry for a grid: its Params carry the
// declared axes (so the spec-level cache key changes whenever the grid
// is recomposed) and its Run assembles the full grid through the
// engine's per-cell cache.
func (e *Engine) gridSpec(g GridSpec) Spec {
	return Spec{
		ID:       g.ID,
		Title:    g.Title,
		PaperRef: g.PaperRef,
		Version:  g.Version,
		Params: Params{
			Sizes:       g.Sizes,
			QuickSizes:  g.QuickSizes,
			Trials:      g.Seeds,
			QuickTrials: g.QuickSeeds,
			Extra:       g.axes(),
		},
		Run: func(ctx context.Context, cfg Config, _ Params) (*Result, error) {
			return e.RunGrid(ctx, g, cfg, nil, nil)
		},
	}
}

// Grids returns the registered sweep grids in registry order.
func (e *Engine) Grids() []GridSpec { return e.grids }

// LookupGrid finds a registered grid by ID.
func (e *Engine) LookupGrid(id string) (GridSpec, bool) {
	for _, g := range e.grids {
		if g.ID == id {
			return g, true
		}
	}
	return GridSpec{}, false
}

// CellExecutions returns how many grid cells this engine has actually
// computed (cache hits excluded) — the counter the incremental-grid
// tests assert on.
func (e *Engine) CellExecutions() int64 { return e.cellExecutions.Load() }

// cellKey is the content address of one grid cell. It deliberately
// excludes the grid's axis lists and the run config's Quick flag,
// which are fully resolved into the cell itself: a cell's identity is
// (grid logic, axis-value canonical keys, n, seed count, seed). So
// re-running a grid with an added size — or a restricted smoke subset
// at the same seed count — recomputes only genuinely new cells. (A
// quick run shares cells with a full run only where both n and the
// seed count coincide; grids that declare a smaller QuickSeeds trade
// that reuse for speed.)
func (e *Engine) cellKey(g GridSpec, cfg Config, c GridCell) (string, error) {
	ck, err := g.CellKey(c.Protocol, c.Family)
	if err != nil {
		return "", fmt.Errorf("grid %s cell %s: %w", g.ID, c, err)
	}
	return results.Key(
		fmt.Sprintf("schema=%d", results.SchemaVersion),
		"build="+e.build,
		fmt.Sprintf("grid=%s;v=%d;headers=%s", g.ID, g.Version, strings.Join(g.Headers, ",")),
		fmt.Sprintf("cell={%s};n=%d;seeds=%d", ck, c.N, c.Seeds),
		fmt.Sprintf("seed=%d", cfg.Seed),
	), nil
}

// runCell computes (or serves from cache) one cell's table row.
//
// When the context carries a span, the whole cell — cache lookup
// included — runs under a "cell" span whose ID is derived from the
// cell's content address (not the parent chain), so the same cell has
// the same span ID in every run, job, and request: traces are
// comparable across runs.
func (e *Engine) runCell(ctx context.Context, g GridSpec, cfg Config, c GridCell, emit func(Event)) (row []string, rerr error) {
	var key string
	if e.store != nil || obs.FromContext(ctx) != nil {
		k, err := e.cellKey(g, cfg, c)
		switch {
		case err == nil:
			key = k
		case e.store != nil:
			emit(Event{Kind: EventFailed, SpecID: g.ID, Cell: c.String(), Err: err.Error()})
			return nil, err
		default:
			// Tracing only wanted the key for its deterministic span ID;
			// fall back to a derived ID rather than failing a run the
			// cache-less path would not have failed.
		}
	}
	ctx, span := obs.StartDet(ctx, "cell", key)
	if span != nil {
		span.SetStr("protocol", c.Protocol)
		span.SetStr("family", c.Family)
		span.SetNum("n", float64(c.N))
		span.SetNum("seeds", float64(c.Seeds))
		defer func() { span.EndErr(rerr) }()
	}
	res, err := e.runUnit(ctx, span, key, g.ID, c.String(), emit, func() (*Result, error) {
		e.cellExecutions.Add(1)
		cellStarted()
		defer cellFinished()
		start := time.Now() //bccvet:ignore detpath -- measurement site: cell elapsed is reported, never part of a table key
		seeds := make([]int64, c.Seeds)
		for j := range seeds {
			seeds[j] = parallel.DeriveSeed(cfg.Seed, j)
		}
		row, err := g.RunCell(ctx, cfg, c, seeds)
		if err != nil {
			return nil, fmt.Errorf("grid %s cell %s: %w", g.ID, c, err)
		}
		if len(row) != len(g.Headers) {
			return nil, fmt.Errorf("grid %s cell %s: %d columns for %d headers", g.ID, c, len(row), len(g.Headers))
		}
		// Cells ride the report.Result store as single-row tables.
		return &report.Result{
			Tables:  []*report.Table{{Rows: [][]string{row}}},
			Elapsed: time.Since(start), //bccvet:ignore detpath -- measurement site: cell elapsed is reported, never part of a table key
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 1 || len(res.Tables[0].Rows[0]) != len(g.Headers) {
		return nil, fmt.Errorf("grid %s cell %s: malformed cached cell", g.ID, c)
	}
	return res.Tables[0].Rows[0], nil
}

// dispatchOrder returns the order in which RunGrid starts cells:
// descending n, stable by declared index within a size. Cell cost grows
// superlinearly in n, so declared (family-major) order tends to leave
// one n=4096/8192 cell running alone at the tail of a sweep while every
// worker but one idles; starting the big cells first makes the tail
// workers drain the cheap small-n cells instead — the classic
// longest-processing-time heuristic. Assembly, sinks and table rows
// remain in declared cell order regardless of dispatch order.
func dispatchOrder(cells []GridCell) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].N > cells[order[b]].N
	})
	return order
}

// RunGrid executes every cell of the grid concurrently on the
// process-wide worker pool, serving previously computed cells from the
// per-cell content-addressed cache, and assembles one Result whose
// table lists the rows in deterministic cell order. Cells are
// dispatched largest-n first (see dispatchOrder) so a sweep's wall
// clock is not serialized behind a straggler; assembly order, sink
// order and the final table are unaffected. onEvent (optional) observes
// per-cell progress. sink (optional) receives each row as soon as it
// and all its predecessors have finished — always in cell order — so a
// slow grid still streams early rows incrementally. Rows are
// bit-identical at any worker count; a resumed or recomposed grid
// recomputes only cells whose content address is new.
//
// Cancelling ctx aborts the sweep: unstarted cells never start, running
// cells observe the cancellation at their next simulated round, and the
// call returns ctx's error — unless some cell genuinely failed first, in
// which case the lowest-indexed real failure wins. Cells completed
// before the cancellation remain in the cache (a cancelled sweep never
// stores a partial or failed cell), so a retried sweep resumes instead
// of recomputing.
func (e *Engine) RunGrid(ctx context.Context, g GridSpec, cfg Config, onEvent func(Event), sink func(cell GridCell, row []string) error) (result *Result, rerr error) {
	ctx, gspan := obs.Start(ctx, "grid")
	if gspan != nil {
		gspan.SetStr("grid", g.ID)
		defer func() { gspan.EndErr(rerr) }()
	}
	emit := func(Event) {}
	if onEvent != nil {
		emit = onEvent
	}
	cells := g.Cells(cfg)
	gspan.SetNum("cells", float64(len(cells)))
	if len(cells) == 0 {
		// A restriction can intersect the declared feasibility ceilings
		// down to nothing; an empty 200/table would read as "ran, no
		// data", so refuse loudly instead.
		return nil, fmt.Errorf("engine: grid %s has no cells for this configuration (sizes %v, declared ceilings %s)",
			g.ID, g.ResolvedSizes(cfg), g.axes())
	}
	table := &report.Table{
		Title:   fmt.Sprintf("%s (%d cells)", g.Title, len(cells)),
		Caption: g.Caption,
		Headers: append([]string(nil), g.Headers...),
	}
	err := fanOut(ctx, len(cells), dispatchOrder(cells),
		func(i int) ([]string, error) { return e.runCell(ctx, g, cfg, cells[i], emit) },
		func(i int, row []string) error {
			if sink != nil {
				if err := sink(cells[i], row); err != nil {
					return err
				}
			}
			table.Rows = append(table.Rows, row)
			return nil
		},
		func(i int) string { return fmt.Sprintf("grid %s cell %s", g.ID, cells[i]) })
	if err != nil {
		return nil, err
	}
	sizes := g.ResolvedSizes(cfg)
	finding := fmt.Sprintf("%d cells: %d families × %d protocols × %d sizes, %d seeds each.",
		len(cells), len(g.Families), len(g.Protocols), len(sizes), g.SeedCount(cfg))
	if skipped := len(g.Families)*len(g.Protocols)*len(sizes) - len(cells); skipped > 0 {
		finding = fmt.Sprintf("%d cells: %d families × %d protocols × %d sizes minus %d above declared protocol size ceilings, %d seeds each.",
			len(cells), len(g.Families), len(g.Protocols), len(sizes), skipped, g.SeedCount(cfg))
	}
	if g.Summarize != nil {
		finding = g.Summarize(table.Rows)
	}
	return &Result{
		ID:       g.ID,
		Title:    g.Title,
		PaperRef: g.PaperRef,
		Claim:    g.Claim,
		Finding:  finding,
		Tables:   []*report.Table{table},
	}, nil
}
