package engine_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/results"
)

// TestJobTableConcurrentAccess hammers the job table from every public
// angle at once — Submit, Job, Jobs, ActiveJobs, WaitJob — and relies
// on the race detector to catch unsynchronized access. The submitted
// specs finish immediately so the test also exercises the
// running→terminal transition under contention.
func TestJobTableConcurrentAccess(t *testing.T) {
	spec := engine.Spec{ID: "J01", Title: "instant", PaperRef: "-",
		Run: func(context.Context, engine.Config, engine.Params) (*engine.Result, error) {
			return &engine.Result{Claim: "c", Finding: "f"}, nil
		}}
	eng := engine.New([]engine.Spec{spec})

	const submitters, readers, perSubmitter = 8, 8, 16
	const total = submitters * perSubmitter
	ids := make(chan string, total)
	var submitWg, readWg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		submitWg.Add(1)
		go func(seed int64) {
			defer submitWg.Done()
			for k := 0; k < perSubmitter; k++ {
				job := eng.Submit(t.Context(), engine.Config{Seed: seed}, []string{"J01"})
				ids <- job.ID
			}
		}(int64(i))
	}
	var waited atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				case id := <-ids:
					if _, err := eng.WaitJob(t.Context(), id); err != nil {
						t.Error(err)
					} else if _, ok := eng.Job(id); !ok {
						t.Errorf("job %s vanished while table below retention", id)
					}
					waited.Add(1)
				default:
					eng.Jobs()
					eng.ActiveJobs()
				}
			}
		}()
	}
	submitWg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for waited.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs waited on within the deadline", waited.Load(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	readWg.Wait()
	if got := eng.ActiveJobs(); got != 0 {
		t.Fatalf("ActiveJobs = %d after every job finished", got)
	}
}

// TestCancelledJobCellsDoNotPoisonCache pins the interaction between job
// cancellation and the result store: a job cancelled mid-grid reports
// status cancelled, stores nothing for its unfinished cells, and a
// subsequent run of the same grid recomputes only what never completed —
// then a third run is served entirely from cache.
func TestCancelledJobCellsDoNotPoisonCache(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	firstCellDone := make(chan struct{})
	// release lets the parked n=8 cell finish once the cancelled run is
	// over, so the rerun computes it without waiting on a timer.
	release := make(chan struct{})
	var once sync.Once
	var executions atomic.Int64
	grid := engine.GridSpec{
		ID: "GP", Title: "poison probe",
		Protocols: []string{"p"}, Families: []string{"f"},
		Sizes: []int{8, 16}, Seeds: 1,
		Headers: []string{"n"},
		CellKey: func(string, string) (string, error) { return "k", nil },
		RunCell: func(ctx context.Context, _ engine.Config, c engine.GridCell, _ []int64) ([]string, error) {
			executions.Add(1)
			// The larger cell (dispatched first) completes; the smaller
			// one parks on the context so the cancel catches it mid-cell.
			if c.N == 16 {
				defer once.Do(func() { close(firstCellDone) })
				return []string{"16"}, nil
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return []string{"8"}, nil
			}
		},
	}
	eng := engine.New(nil, engine.WithStore(store), engine.WithGrids(grid))

	ctx, cancel := context.WithCancel(t.Context())
	job := eng.Submit(ctx, engine.Config{Seed: 1}, []string{"GP"})
	<-firstCellDone
	cancel()
	final, err := eng.WaitJob(t.Context(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != engine.JobCancelled {
		t.Fatalf("cancelled job status %q, want cancelled: %+v", final.Status, final)
	}

	// Rerun: the completed n=16 cell must come from cache, the aborted
	// n=8 cell must recompute (its failed attempt was never stored).
	close(release)
	execsBefore := executions.Load()
	res, err := eng.RunGrid(t.Context(), grid, engine.Config{Seed: 1}, nil, nil)
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if got := executions.Load() - execsBefore; got != 1 {
		t.Fatalf("rerun executed %d cells, want exactly the aborted one", got)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 2 || rows[0][0] != "8" || rows[1][0] != "16" {
		t.Fatalf("rerun rows = %v", rows)
	}

	// Third run: fully cached.
	execsBefore = executions.Load()
	if _, err := eng.RunGrid(t.Context(), grid, engine.Config{Seed: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load() - execsBefore; got != 0 {
		t.Fatalf("third run executed %d cells, want 0", got)
	}
}

// TestRunGridCancelledReturnsContextError pins partial-grid abort: a
// sweep cancelled mid-run surfaces the context error (no cell genuinely
// failed), and unstarted cells never run.
func TestRunGridCancelledReturnsContextError(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	var executions atomic.Int64
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = i + 1
	}
	grid := engine.GridSpec{
		ID: "GC", Title: "cancel probe",
		Protocols: []string{"p"}, Families: []string{"f"},
		Sizes: sizes, Seeds: 1,
		Headers: []string{"n"},
		CellKey: func(string, string) (string, error) { return "k", nil },
		RunCell: func(ctx context.Context, _ engine.Config, _ engine.GridCell, _ []int64) ([]string, error) {
			executions.Add(1)
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	eng := engine.New(nil, engine.WithGrids(grid))

	ctx, cancel := context.WithCancel(t.Context())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.RunGrid(ctx, grid, engine.Config{Seed: 1}, nil, nil)
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunGrid returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled RunGrid did not return")
	}
	settled := executions.Load()
	time.Sleep(20 * time.Millisecond)
	if now := executions.Load(); now != settled {
		t.Fatalf("cells kept starting after RunGrid returned: %d -> %d", settled, now)
	}
}
