package reader

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/testutil"
)

// TestRunCancelledMidScan: cancelling the context mid-run returns
// ctx.Err() promptly — without finishing the remaining files — and leaks
// no goroutines, serial and through a queue of workers ahead of the cutter.
func TestRunCancelledMidScan(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		workers int // 0 is the serial Run
	}{
		{"serial", 0},
		{"pipelined", 2},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			// A wide scan set so the workers (a window of workers + 1 files)
			// cannot decode the whole table before the consumer observes the
			// cancellation.
			env := newTestEnv(t, 400, true)
			files, _ := env.catalog.AllFiles("tbl")
			if len(files) < cfg.workers+5 {
				t.Fatalf("need a wide multi-file scan, got %d files", len(files))
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			emitted := 0
			emit := func(*Batch) error {
				emitted++
				if emitted == 1 {
					cancel() // cancel mid-run, with most of the scan left
				}
				return nil
			}
			work, queued, err := runQueued(ctx, t, env.store, baseSpec(), files, cfg.workers, emit)
			work.Add(queued)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run after cancel = %v, want context.Canceled", err)
			}
			if emitted == 0 {
				t.Fatal("scan never started before cancellation")
			}
			// Promptness: the scan must not have run to completion.
			if got, all := work.RowsDecoded, int64(len(env.samples)); got >= all {
				t.Fatalf("cancelled run decoded all %d rows", all)
			}

			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestRunCancelledBeforeStart: an already-cancelled context never emits.
func TestRunCancelledBeforeStart(t *testing.T) {
	env := newTestEnv(t, 10, true)
	r, err := NewReader(env.store, baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles("tbl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = r.Run(ctx, files, func(*Batch) error {
		t.Fatal("emit called under cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v want context.Canceled", err)
	}
}
