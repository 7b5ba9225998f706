// Package engine is the deterministic parallel execution core shared by
// the campaign simulator, the ML cross-validation loops, and the experiment
// suite. Every hot path in the reproduction is embarrassingly parallel —
// ~1200 independent instrumented runs, k-fold CV, per-dataset figure
// regeneration — and they all run through the same primitives:
//
//   - a bounded worker pool with context cancellation (Map),
//   - ordered result merge (MapOrdered): results land in shard order no
//     matter which worker finished first, so floating-point reductions are
//     identical at every worker count,
//   - per-shard splittable RNG streams (MapSeeded/Shards, reusing
//     internal/rng): each shard derives its stream from the root seed and
//     its own index, never from execution order,
//   - first-error propagation: the first failing shard cancels the rest,
//     and the reported error is the one with the lowest shard index so
//     error output is reproducible too.
//
// The contract every caller relies on (and the tests enforce): for a pure
// per-shard function, workers=1 and workers=N produce byte-identical
// results. Parallelism changes wall-clock time, never output.
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
)

// EnvWorkers is the environment variable consulted when the caller does not
// pin a worker count. The CLIs' -workers flag overrides it.
const EnvWorkers = "DRAGONVAR_WORKERS"

// Workers resolves a requested worker count: n when positive, otherwise
// $DRAGONVAR_WORKERS when set to a positive integer, otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if v := os.Getenv(EnvWorkers); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k > 0 {
			return k
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, worker, shard) for every shard in [0, n) on a bounded
// pool. worker identifies the executing goroutine in [0, Workers(workers)),
// so callers can reuse expensive per-worker state (a worker processes its
// shards strictly sequentially). Shards are handed out dynamically for load
// balance; a correct fn must therefore not depend on which worker runs
// which shard.
//
// The first shard error cancels the context passed to the remaining shards
// and Map returns the non-cancellation error with the lowest shard index
// (so the reported failure does not depend on scheduling). When the parent
// context is cancelled, Map drains quickly and returns ctx.Err().
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, worker, shard int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Telemetry is observation-only: the wrapped fn runs identically, the
	// handles are no-ops when disabled, and nothing below reads a metric.
	if telemetry.Enabled() {
		telemetry.C(telemetry.MEngineMaps).Inc()
		shardRun := telemetry.H(telemetry.MEngineShardRun, telemetry.SecondsBuckets)
		inner := fn
		fn = func(ctx context.Context, worker, shard int) error {
			start := time.Now()
			err := inner(ctx, worker, shard)
			shardRun.ObserveSince(start)
			return err
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue // keep draining so the shard range stays covered
				}
				if err := fn(cctx, w, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err // parent cancellation wins over per-shard noise
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapOrdered runs fn over [0, n) on a bounded pool and returns the results
// in shard order — the parallel equivalent of appending inside a serial
// loop. On error the partial slice is returned alongside it (shards that
// never ran hold the zero value).
func MapOrdered[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, shard int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(ctx, workers, n, func(ctx context.Context, _, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// Shards derives n independent RNG streams from root: shard i gets
// root.Split("label-i"). Splitting depends only on the root's seed material
// and the label (never on how much of the parent was consumed), so the
// streams are identical at every worker count and shard order.
func Shards(root *rng.Stream, label string, n int) []*rng.Stream {
	out := make([]*rng.Stream, n)
	for i := range out {
		out[i] = root.Split(fmt.Sprintf("%s-%d", label, i))
	}
	return out
}

// MapSeeded is Map with a per-shard stream derived as in Shards. The shard
// function owns its stream exclusively; the root is only read.
func MapSeeded(ctx context.Context, workers, n int, root *rng.Stream, label string, fn func(ctx context.Context, shard int, s *rng.Stream) error) error {
	return Map(ctx, workers, n, func(ctx context.Context, _, i int) error {
		return fn(ctx, i, root.Split(fmt.Sprintf("%s-%d", label, i)))
	})
}
