package telemetry

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSigintSnapshotPath exercises the CLIs' -telemetry interrupt path: a
// workload under signal.NotifyContext is interrupted by a real SIGINT, and
// the deferred Flush must still produce a complete, loadable snapshot of
// everything recorded up to the interruption.
func TestSigintSnapshotPath(t *testing.T) {
	r := New()
	Enable(r)
	defer Disable()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The "workload": record metrics until cancellation, like a campaign
	// round loop does.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, sp := Start(ctx, SpanCampaign)
		defer sp.End()
		for {
			select {
			case <-ctx.Done():
				return
			default:
				C(MClusterRuns).Inc()
				H(MClusterRunSecs, SecondsBuckets).Observe(0.001)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Let it record something, then interrupt the whole process the way a
	// ^C would.
	time.Sleep(20 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workload did not observe the SIGINT cancellation")
	}
	stop() // restore default handling before any later test signals

	path := filepath.Join(t.TempDir(), "sigint.json")
	if err := Flush(path); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[MClusterRuns] == 0 {
		t.Error("interrupted snapshot lost the run counter")
	}
	h := snap.Histograms[MClusterRunSecs]
	if h.Count == 0 || h.Count != snap.Counters[MClusterRuns] {
		t.Errorf("histogram count %d does not match counter %d", h.Count, snap.Counters[MClusterRuns])
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != SpanCampaign {
		t.Errorf("interrupted snapshot spans = %+v, want the closed campaign span", snap.Spans)
	}
}

// TestConcurrentSpanNesting runs many goroutines each building a nested
// span chain through its own context; under -race this proves the span
// machinery is concurrency-safe, and the assertions prove no cross-goroutine
// parent leakage (contexts, not globals, carry the parent).
func TestConcurrentSpanNesting(t *testing.T) {
	r := New()
	const goroutines = 16
	const depth = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			root := fmt.Sprintf("worker%d", g)
			ctx, sp := StartIn(r, ctx, root)
			spans := []*Span{sp}
			for d := 1; d < depth; d++ {
				ctx, sp = StartIn(r, ctx, fmt.Sprintf("stage%d", d))
				spans = append(spans, sp)
			}
			for i := len(spans) - 1; i >= 0; i-- {
				spans[i].End()
			}
		}(g)
	}
	wg.Wait()

	spans := r.Snapshot().Spans
	if len(spans) != goroutines*depth {
		t.Fatalf("got %d spans, want %d", len(spans), goroutines*depth)
	}
	byID := map[string]SpanRecord{}
	for _, sp := range spans {
		if sp.SpanID == "" || byID[sp.SpanID].SpanID != "" {
			t.Fatalf("missing or duplicate span id %q", sp.SpanID)
		}
		byID[sp.SpanID] = sp
	}
	for _, sp := range spans {
		if sp.ParentSpanID == "" {
			if sp.Path != sp.Name {
				t.Errorf("root span path = %q, want %q", sp.Path, sp.Name)
			}
			continue
		}
		parent, ok := byID[sp.ParentSpanID]
		if !ok {
			t.Errorf("span %s has unknown parent %s", sp.SpanID, sp.ParentSpanID)
			continue
		}
		// the child's chain stays inside its own goroutine's worker tree
		if want := parent.Path + "/" + sp.Name; sp.Path != want {
			t.Errorf("span path = %q, want %q", sp.Path, want)
		}
	}
	// every goroutine contributed exactly one root and one full chain
	roots := 0
	for _, sp := range spans {
		if sp.ParentSpanID == "" {
			roots++
		}
	}
	if roots != goroutines {
		t.Errorf("got %d root spans, want %d", roots, goroutines)
	}
}
