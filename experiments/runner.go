package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hybridvc"
	"hybridvc/internal/sim"
	"hybridvc/internal/workload"
)

// Cell is one independent job of an experiment sweep: typically one
// (organization × workload) design point. Most cells describe a complete
// system run — a hybridvc.Config, the workloads to load, and an
// instruction budget — and yield a sim.Report; experiments that need the
// trace model or custom plumbing instead supply Fn, which replaces the
// system path entirely. Cells must be self-contained: they run
// concurrently on a worker pool and may not share mutable state.
type Cell struct {
	// Label identifies the cell in errors and progress output
	// (e.g. "fig9/gups/many-segment+sc").
	Label string

	// Config assembles the system under test (system-path cells). The
	// zero Config gets the facade defaults, including Seed=1; set
	// Config.Seed for a per-cell seed.
	Config hybridvc.Config
	// Workloads are loaded into the system in order (multi-entry for
	// multiprogrammed mixes).
	Workloads []string
	// Specs are custom workload specs loaded after Workloads (used when a
	// named spec needs modification, e.g. forcing huge pages).
	Specs []workload.Spec
	// Instructions is the per-core instruction budget for Run.
	Instructions uint64
	// Extract, when set, post-processes the finished system inside the
	// worker (while the system is still alive) and becomes the cell's
	// Value. Without it the Value is nil and the Report carries the data.
	Extract func(sys *hybridvc.System, rep sim.Report) (any, error)

	// Fn, when set, replaces the system path: the cell runs Fn and stores
	// its result as the Value (Report stays zero).
	Fn func() (any, error)

	// DecodeValue, when set, reconstructs a checkpointed Value from its
	// JSON encoding so checkpoint resume (RunOptions.Checkpoint) can restore
	// Extract/Fn results without re-running the cell. A cell whose
	// checkpoint record carries a Value but has no decoder is re-run.
	DecodeValue func(data []byte) (any, error)
}

// CellResult is one cell's outcome, slotted at the cell's input index.
type CellResult struct {
	// Report is the simulation report for system-path cells.
	Report sim.Report
	// Value is the Extract or Fn result.
	Value any
}

// ErrTransient marks failures worth retrying. Wrap cell errors with
// Transient (or %w this sentinel) to opt into the retry path; recovered
// panics and cell timeouts are transient automatically.
var ErrTransient = errors.New("transient failure")

// transientErr tags an error as transient without changing its message.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }
func (e *transientErr) Is(target error) bool {
	return target == ErrTransient
}

// Transient wraps err so IsTransient reports true (nil stays nil).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err}
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// RunOptions carries everything a sweep is configured by: its worker
// count, cancellation, per-cell bound, retries, checkpoint journal and
// progress observer. Each sweep gets its own value, so independent
// sweeps (tablegen runs, concurrent hvcd jobs) never share state. The
// zero value means: GOMAXPROCS workers, never cancelled, unbounded
// cells, no retries, no checkpoint, no progress.
type RunOptions struct {
	// Jobs is the worker-pool width (<= 0 = GOMAXPROCS). Results are
	// index-slotted, so tables are identical for any value.
	Jobs int
	// Ctx cancels the sweep (nil = background): pending cells are not
	// started, in-flight cells are abandoned promptly, and RunCells
	// returns the partial results together with the context's error.
	Ctx context.Context
	// CellTimeout bounds each cell attempt (<= 0 = unbounded): an
	// attempt that produces no result in time fails with a transient
	// timeout error, so retries apply to it.
	CellTimeout time.Duration
	// Retries re-runs a transiently failed cell — a recovered panic, a
	// cell timeout, or any error wrapping ErrTransient — up to this many
	// times, with a linearly growing pause between attempts (attempt n
	// waits n×Backoff; Backoff <= 0 = 100ms).
	Retries int
	Backoff time.Duration
	// Checkpoint journals every completed cell to this NDJSON path and
	// resumes from it ("" = disabled): cells whose records are already
	// present (matched by index and label) are restored instead of
	// re-run, so an interrupted sweep continued with the same
	// configuration reaches the same final results.
	Checkpoint string
	// Progress, when set, observes cell completions (done so far, total,
	// finished cell's label and elapsed time). It may be called from
	// several worker goroutines, but never concurrently within a sweep.
	Progress func(done, total int, label string, elapsed time.Duration)
}

// RunCells executes the cells on a pool of opts.Jobs workers and returns
// their results in input order. It is the one entry of the sweep runner:
// every built-in experiment, tablegen and the service daemon go through
// it. A cell that fails — via returned error or recovered panic — leaves
// its slot's Value nil; all failures are joined into the returned error.
// Because results are index-slotted and cells are isolated, the output
// is identical for any worker count, and a checkpointed sweep resumed
// after an interruption reaches the same final results as an
// uninterrupted one.
func RunCells(cells []Cell, opts RunOptions) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	cellErrs := make([]error, len(cells))
	if len(cells) == 0 {
		return results, nil
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}

	restored := make([]bool, len(cells))
	var ckpt *checkpoint
	if opts.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(opts.Checkpoint, cells, results, restored)
		if err != nil {
			return results, err
		}
		defer ckpt.close()
	}
	pending := 0
	for i := range cells {
		if !restored[i] {
			pending++
		}
	}

	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > pending {
		jobs = pending
	}

	done := len(cells) - pending
	var doneMu sync.Mutex // guards done and serializes Progress
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					// Cancelled: leave the slot unrun; the sweep-level
					// context error covers every abandoned cell.
					continue
				}
				start := time.Now()
				results[i], cellErrs[i] = runCellResilient(ctx, cells[i], opts)
				if cellErrs[i] == nil && ckpt != nil {
					cellErrs[i] = ckpt.append(i, cells[i], results[i])
				}
				doneMu.Lock()
				done++
				if opts.Progress != nil {
					opts.Progress(done, len(cells), cells[i].Label, time.Since(start))
				}
				doneMu.Unlock()
			}
		}()
	}
dispatch:
	for i := range cells {
		if restored[i] {
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		cellErrs = append(cellErrs, fmt.Errorf("sweep interrupted: %w", context.Cause(ctx)))
	}
	return results, errors.Join(cellErrs...)
}

// runCellResilient runs one cell, retrying transient failures with
// linear backoff up to the configured attempt budget.
func runCellResilient(ctx context.Context, c Cell, opts RunOptions) (CellResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := runCellOnce(ctx, c, opts.CellTimeout)
		if err == nil || attempt >= opts.Retries || !IsTransient(err) || ctx.Err() != nil {
			return res, err
		}
		select {
		case <-ctx.Done():
			return res, err
		case <-time.After(time.Duration(attempt+1) * opts.Backoff):
		}
	}
}

// runCellOnce runs one cell attempt, bounding it by the cell timeout and
// the sweep context. A timed-out or abandoned attempt's goroutine cannot
// be killed — it is left to finish in the background and its result is
// discarded; cells are self-contained, so it cannot corrupt the sweep.
func runCellOnce(ctx context.Context, c Cell, timeout time.Duration) (CellResult, error) {
	if timeout <= 0 && ctx.Done() == nil {
		return runOneCell(c)
	}
	type outcome struct {
		res CellResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, e := runOneCell(c)
		ch <- outcome{r, e}
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-expired:
		return CellResult{}, Transient(fmt.Errorf("cell %q: no result within %v", c.Label, timeout))
	case <-ctx.Done():
		return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, context.Cause(ctx))
	}
}

// runOneCell executes a single cell, converting any panic into a
// transient error so one bad design point cannot abort a whole sweep and
// sporadic (e.g. injected) panics are retried when retries are enabled.
func runOneCell(c Cell) (res CellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Transient(fmt.Errorf("cell %q: panic: %v\n%s", c.Label, r, debug.Stack()))
		}
	}()
	if c.Fn != nil {
		v, ferr := c.Fn()
		if ferr != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, ferr)
		}
		return CellResult{Value: v}, nil
	}
	sys, err := hybridvc.New(c.Config)
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
	}
	for _, wl := range c.Workloads {
		if err := sys.LoadWorkload(wl); err != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
		}
	}
	for _, spec := range c.Specs {
		if err := sys.LoadSpec(spec); err != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
		}
	}
	rep, err := sys.Run(c.Instructions)
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
	}
	res = CellResult{Report: rep}
	if c.Extract != nil {
		v, xerr := c.Extract(sys, rep)
		if xerr != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, xerr)
		}
		res.Value = v
	}
	return res, nil
}
