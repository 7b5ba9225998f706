package cli

// The shutdown-signal contract shared by every command in the repository:
// the first SIGINT or SIGTERM cancels the returned context for a graceful
// shutdown (campaigns flush partial caches, daemons drain in-flight
// requests, distributed workers finish their in-flight unit), and a second
// signal force-exits the process — an operator pressing Ctrl-C twice means
// "now", not "whenever the drain finishes".

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// forcedExitCode is what the process exits with on the second signal.
const forcedExitCode = ExitInterrupted

// exitFn is swapped out by tests so the second-signal path can be
// exercised without killing the test process. Guarded by exitMu.
var (
	exitMu sync.Mutex
	exitFn func(int) = os.Exit
)

func exit(code int) {
	exitMu.Lock()
	fn := exitFn
	exitMu.Unlock()
	fn(code)
}

// WithShutdown derives a context that is cancelled exactly once on the
// first SIGINT/SIGTERM; a second signal force-exits the process with
// status 130. The returned stop releases the signal registration (defer
// it) — after stop, signals regain their default process-killing
// behavior.
func WithShutdown(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ch:
			cancel()
		case <-stopped:
			return
		}
		select {
		case <-ch:
			// the graceful path already ran once; the operator wants out
			// now. The registration stays in place: exit does not return,
			// and dropping it early would let a third signal race the exit
			// with default-action process death.
			exit(forcedExitCode)
		case <-stopped:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(stopped)
			cancel()
		})
	}
	return ctx, stop
}
