package telemetry

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
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
	// walking ParentSpanID from stage d passes stage d-1, …, stage 1 and
	// ends at a named worker root after exactly d steps: the chain stays
	// inside its own goroutine's tree
	perRoot := map[string]int{}
	for _, sp := range spans {
		level := 0
		if sp.ParentSpanID != "" {
			if _, err := fmt.Sscanf(sp.Name, "stage%d", &level); err != nil {
				t.Fatalf("child span named %q", sp.Name)
			}
		}
		cur := sp
		for d := level; d > 0; d-- {
			parent, ok := byID[cur.ParentSpanID]
			if !ok {
				t.Fatalf("span %s (%s) has unknown parent %s", cur.SpanID, cur.Name, cur.ParentSpanID)
			}
			want := fmt.Sprintf("stage%d", d-1)
			if d == 1 {
				want = "worker"
			}
			if !strings.HasPrefix(parent.Name, want) {
				t.Fatalf("parent of %s is %q, want %s", cur.Name, parent.Name, want)
			}
			cur = parent
		}
		if cur.ParentSpanID != "" || !strings.HasPrefix(cur.Name, "worker") {
			t.Fatalf("chain from %s ends at %q (parent %q), want a worker root", sp.Name, cur.Name, cur.ParentSpanID)
		}
		perRoot[cur.Name]++
	}
	for name, n := range perRoot {
		if n != depth {
			t.Errorf("root %s holds %d spans, want %d", name, n, depth)
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
