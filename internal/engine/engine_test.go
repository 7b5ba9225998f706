package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d, want 3", got)
	}
	t.Setenv(EnvWorkers, "7")
	if got := Workers(0); got != 7 {
		t.Fatalf("Workers(0) with %s=7 = %d, want 7", EnvWorkers, got)
	}
	if got := Workers(2); got != 2 {
		t.Fatalf("explicit count must beat the environment: got %d, want 2", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("garbage %s should fall back to GOMAXPROCS: got %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "-4")
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("non-positive %s should fall back to GOMAXPROCS: got %d", EnvWorkers, got)
	}
}

func TestMapCoversEveryShardExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		const n = 100
		visits := make([]atomic.Int32, n)
		err := Map(context.Background(), workers, n, func(_ context.Context, _, i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestMapWorkerIDsBoundedAndSequential(t *testing.T) {
	const workers, n = 4, 64
	var running [workers]atomic.Int32
	err := Map(context.Background(), workers, n, func(_ context.Context, w, _ int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of [0,%d)", w, workers)
		}
		if running[w].Add(1) != 1 {
			t.Errorf("worker %d ran two shards concurrently", w)
		}
		time.Sleep(time.Millisecond)
		running[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapReportsTheFailingShard(t *testing.T) {
	sentinel := errors.New("shard 4 exploded")
	for _, workers := range []int{1, 8} {
		err := Map(context.Background(), workers, 20, func(_ context.Context, _, i int) error {
			if i == 4 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want the shard error", workers, err)
		}
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int32
	err := Map(context.Background(), 1, 10, func(_ context.Context, _, i int) error {
		ran.Add(1)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("serial map ran %d shards after an error at shard 3, want 4", ran.Load())
	}
}

func TestMapParentCancellationWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- Map(ctx, 4, 50, func(ctx context.Context, _, _ int) error {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
			}
			return ctx.Err()
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not drain after parent cancellation")
	}
}

func TestMapOrderedResultsLandInShardOrder(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 8} {
		out, err := MapOrdered(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			// later shards finish first, so unordered collection would scramble
			time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}
