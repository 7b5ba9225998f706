package cli

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// stubExit replaces the process-exit hook for one test, returning a
// counter of calls and the last code. Restored on cleanup.
func stubExit(t *testing.T) (*atomic.Int64, *atomic.Int64) {
	t.Helper()
	var calls, code atomic.Int64
	exitMu.Lock()
	prev := exitFn
	exitFn = func(c int) {
		calls.Add(1)
		code.Store(int64(c))
	}
	exitMu.Unlock()
	t.Cleanup(func() {
		exitMu.Lock()
		exitFn = prev
		exitMu.Unlock()
	})
	return &calls, &code
}

// raise sends sig to our own process; the registered handler picks it up.
func raise(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), sig); err != nil {
		t.Fatal(err)
	}
}

func TestFirstSignalCancels(t *testing.T) {
	stubExit(t) // a stray second delivery must not kill the test binary
	ctx, stop := WithShutdown(context.Background())
	defer stop()

	raise(t, syscall.SIGTERM)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled by SIGTERM")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
	}
}

func TestSecondSignalForcesExit(t *testing.T) {
	calls, code := stubExit(t)
	ctx, stop := WithShutdown(context.Background())
	defer stop()

	raise(t, syscall.SIGTERM)
	<-ctx.Done()
	raise(t, syscall.SIGTERM)

	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second signal did not force an exit")
		}
		time.Sleep(time.Millisecond)
	}
	if got := code.Load(); got != forcedExitCode {
		t.Fatalf("forced exit code = %d, want %d", got, forcedExitCode)
	}
}

// TestConcurrentSignalsCancelOnce storms the handler from many goroutines:
// the context must cancel exactly once (no panic, no double close) and the
// test must stay race-clean under -race.
func TestConcurrentSignalsCancelOnce(t *testing.T) {
	stubExit(t)
	ctx, stop := WithShutdown(context.Background())
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raise(t, syscall.SIGTERM)
		}()
	}
	wg.Wait()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled under concurrent signals")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("ctx.Err() = %v, want Canceled", ctx.Err())
	}
	// stop is idempotent and safe concurrently with late deliveries
	var sg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			stop()
		}()
	}
	sg.Wait()
}

// TestStopRestoresDefault: after stop, the handler goroutine is gone and a
// fresh WithShutdown starts from a clean slate (the previous registration
// does not leak cancellations into the new context).
func TestStopRestoresDefault(t *testing.T) {
	stubExit(t)
	_, stop := WithShutdown(context.Background())
	stop()

	ctx2, stop2 := WithShutdown(context.Background())
	defer stop2()
	select {
	case <-ctx2.Done():
		t.Fatal("fresh context cancelled without a signal")
	case <-time.After(50 * time.Millisecond):
	}
}
