package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// fnCell builds a trivial Fn cell returning its own index.
func fnCell(i int, fn func() (any, error)) Cell {
	return Cell{Label: fmt.Sprintf("cell-%d", i), Fn: fn, DecodeValue: decodeStringRow}
}

// TestContextCancelStopsSweep proves cancellation is prompt: once the
// context fires, pending cells never start and RunCells reports the
// interruption.
func TestContextCancelStopsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())

	var started atomic.Int64
	release := make(chan struct{})
	cells := make([]Cell, 16)
	for i := range cells {
		i := i
		cells[i] = fnCell(i, func() (any, error) {
			started.Add(1)
			<-release
			return []string{fmt.Sprint(i)}, nil
		})
	}
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	_, err := RunCells(cells, RunOptions{Jobs: 2, Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 4 {
		t.Errorf("%d cells started after prompt cancellation (2 workers)", n)
	}
}

// TestRetryRecoversTransientFailures proves the retry path: cells that
// fail transiently (explicitly marked, or via panic) succeed within the
// attempt budget, and non-transient failures are not retried.
func TestRetryRecoversTransientFailures(t *testing.T) {

	var transientTries, panicTries, fatalTries atomic.Int64
	cells := []Cell{
		fnCell(0, func() (any, error) {
			if transientTries.Add(1) < 3 {
				return nil, Transient(errors.New("injected hiccup"))
			}
			return []string{"ok"}, nil
		}),
		fnCell(1, func() (any, error) {
			if panicTries.Add(1) < 2 {
				panic("injected panic")
			}
			return []string{"ok"}, nil
		}),
		fnCell(2, func() (any, error) {
			fatalTries.Add(1)
			return nil, errors.New("permanent failure")
		}),
	}
	results, err := RunCells(cells, RunOptions{Retries: 3, Backoff: time.Millisecond})
	if err == nil {
		t.Fatal("permanent failure not reported")
	}
	if got := results[0].Value; !reflect.DeepEqual(got, any([]string{"ok"})) {
		t.Errorf("transient cell result %v after %d tries", got, transientTries.Load())
	}
	if got := results[1].Value; !reflect.DeepEqual(got, any([]string{"ok"})) {
		t.Errorf("panicking cell result %v after %d tries", got, panicTries.Load())
	}
	if n := fatalTries.Load(); n != 1 {
		t.Errorf("non-transient cell ran %d times, want 1", n)
	}
}

// TestCellTimeoutIsTransient proves a hung cell is abandoned at the
// timeout and the failure classifies as transient (so retries apply).
func TestCellTimeoutIsTransient(t *testing.T) {
	opts := RunOptions{CellTimeout: 10 * time.Millisecond}

	var tries atomic.Int64
	hang := make(chan struct{})
	defer close(hang)
	cells := []Cell{fnCell(0, func() (any, error) {
		if tries.Add(1) == 1 {
			<-hang
		}
		return []string{"ok"}, nil
	})}
	_, err := RunCells(cells, opts)
	if err == nil || !IsTransient(err) {
		t.Fatalf("timeout error %v is not transient", err)
	}

	opts.Retries, opts.Backoff = 1, time.Millisecond
	tries.Store(0)
	results, err := RunCells(cells, opts)
	if err != nil {
		t.Fatalf("retry after timeout failed: %v", err)
	}
	if got := results[0].Value; !reflect.DeepEqual(got, any([]string{"ok"})) {
		t.Errorf("result %v after timeout retry", got)
	}
}

// TestCheckpointResume proves the resume contract: a sweep interrupted
// partway, then re-run against the same checkpoint, reaches results
// identical to an uninterrupted sweep — restored cells do not re-run.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ndjson")
	opts := RunOptions{Jobs: 1, Checkpoint: ckpt}

	var runs atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	mk := func() []Cell {
		cells := make([]Cell, 6)
		for i := range cells {
			i := i
			cells[i] = fnCell(i, func() (any, error) {
				if i >= 3 && fail.Load() {
					return nil, fmt.Errorf("interrupted before cell %d", i)
				}
				runs.Add(1)
				return []string{fmt.Sprintf("value-%d", i)}, nil
			})
		}
		return cells
	}

	if _, err := RunCells(mk(), opts); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("%d cells completed before interruption, want 3", n)
	}

	fail.Store(false)
	results, err := RunCells(mk(), opts)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("resume re-ran completed cells: %d total runs, want 6", n)
	}
	for i, r := range results {
		want := []string{fmt.Sprintf("value-%d", i)}
		if !reflect.DeepEqual(r.Value, any(want)) {
			t.Errorf("cell %d resumed to %v, want %v", i, r.Value, want)
		}
	}

	// A torn trailing record (crash mid-write) must not poison resume.
	f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":2,"label":"cell-2","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := RunCells(mk(), opts); err != nil {
		t.Fatalf("resume with torn trailing record: %v", err)
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("torn record caused re-runs: %d total runs, want 6", n)
	}
}

// TestCheckpointResumeMatchesUninterrupted proves byte-level determinism
// of resume on the real system path: a fault-sweep cell checkpointed and
// restored yields the same table as running fresh.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	skipIfRace(t)

	fresh, err := FaultSweep(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	opts := RunOptions{Checkpoint: filepath.Join(t.TempDir(), "faults.ndjson")}
	first, err := FaultSweep(Quick, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := FaultSweep(Quick, opts) // every cell restored from the journal
	if err != nil {
		t.Fatal(err)
	}
	if fresh.String() != first.String() {
		t.Errorf("checkpointed sweep diverged from plain sweep")
	}
	if fresh.String() != resumed.String() {
		t.Errorf("resumed sweep diverged from uninterrupted sweep")
	}
}

// TestRunnerRaceSafety exercises the worker pool's panic recovery,
// retry, checkpoint and progress paths concurrently; run with -race it
// proves the machinery is goroutine-safe and that the progress observer
// sees every completion once, in order, never concurrently.
func TestRunnerRaceSafety(t *testing.T) {
	var seen []int // unsynchronized on purpose: -race flags concurrent calls
	opts := RunOptions{
		Jobs:       8,
		Retries:    2,
		Backoff:    time.Millisecond,
		Checkpoint: filepath.Join(t.TempDir(), "race.ndjson"),
		Progress: func(done, total int, _ string, _ time.Duration) {
			seen = append(seen, done)
		},
	}

	var flaky [32]atomic.Int64
	cells := make([]Cell, len(flaky))
	for i := range cells {
		i := i
		cells[i] = fnCell(i, func() (any, error) {
			if i%3 == 0 && flaky[i].Add(1) == 1 {
				panic(fmt.Sprintf("first-attempt panic in cell %d", i))
			}
			return []string{fmt.Sprint(i)}, nil
		})
	}
	results, err := RunCells(cells, opts)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	for i, done := range seen {
		if done != i+1 {
			t.Fatalf("progress reported %v, want 1..%d in order", seen, len(cells))
		}
	}
	if len(seen) != len(cells) {
		t.Errorf("progress fired %d times for %d cells", len(seen), len(cells))
	}
	for i, r := range results {
		if !reflect.DeepEqual(r.Value, any([]string{fmt.Sprint(i)})) {
			t.Errorf("cell %d: %v", i, r.Value)
		}
	}
}
