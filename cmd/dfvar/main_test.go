package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/experiments"
	"dragonvar/internal/telemetry"
)

// childEnv marks this test binary re-executed as the dfvar CLI.
const childEnv = "DFVAR_TEST_CLI"

// TestMain doubles as the dfvar CLI when a test re-executes this binary
// as a worker process (startChild).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		cli.Main("dfvar", run)
	}
	os.Exit(m.Run())
}

// runCLI calls run in-process and returns its error and output.
func runCLI(ctx context.Context, args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(ctx, args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, cli.ExitUsage},
		{[]string{"-h"}, cli.ExitOK},
		{[]string{"nosuch"}, cli.ExitUsage},
		{[]string{"campaign", "-h"}, cli.ExitOK},
		{[]string{"campaign", "-bogus"}, cli.ExitUsage},
		{[]string{"calib", "-bogus"}, cli.ExitUsage},
		{[]string{"report", "-routing", "nosuch"}, cli.ExitUsage},
		{[]string{"worker"}, cli.ExitUsage},
		{[]string{"trace"}, cli.ExitUsage},
		{[]string{"ab", "-arms", "minimal/firstfit"}, cli.ExitUsage},
	}
	for _, c := range cases {
		_, _, err := runCLI(context.Background(), c.args...)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("dfvar %v: exit %d (%v), want %d", c.args, got, err, c.want)
		}
	}
}

// TestCalibGolden: "dfvar calib" prints exactly what the standalone
// calibration binary printed for the same campaign.
func TestCalibGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/calib_small_3d_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runCLI(context.Background(), "calib", "-small", "-days", "3", "-seed", "42", "-cache", "")
	if err != nil {
		t.Fatalf("calib: %v\n%s", err, stderr)
	}
	if stdout != string(want) {
		t.Fatalf("calib output moved:\n--- got\n%s--- want\n%s", stdout, want)
	}
}

// TestMonitorFinishedOnCancel: every campaign-loading subcommand finishes
// the network-weather monitor on the error path too, so an interrupted
// run still closes its event stream and prints the weather report.
func TestMonitorFinishedOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	for _, args := range [][]string{
		{"campaign"}, {"report"}, {"calib"},
		{"export", "-out", filepath.Join(dir, "csv")},
		{"plot", "-out", filepath.Join(dir, "plots")},
	} {
		args = append(args, "-small", "-days", "3", "-cache", "", "-monitor", filepath.Join(dir, args[0]+".jsonl"))
		_, stderr, err := runCLI(ctx, args...)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", args[0], err)
		}
		if !strings.Contains(stderr, "network-weather monitor:") {
			t.Errorf("%s: monitor was not finished; stderr:\n%s", args[0], stderr)
		}
	}
}

// TestTelemetryRootSpansCoverUptime: the root spans of an instrumented
// campaign account for its wall time. Their union must cover at least 95%
// of the snapshot's uptime; a gap means work runs outside any span and
// the trace cannot say where the time went.
func TestTelemetryRootSpansCoverUptime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if _, stderr, err := runCLI(context.Background(), "campaign", "-small", "-days", "3", "-cache", "",
		"-telemetry", path); err != nil {
		t.Fatalf("campaign: %v\n%s", err, stderr)
	}
	snap, err := telemetry.ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	var roots []telemetry.SpanRecord
	for _, sp := range snap.Spans {
		if sp.Parent == 0 {
			roots = append(roots, sp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartS < roots[j].StartS })
	covered, end := 0.0, 0.0
	for _, sp := range roots {
		lo, hi := max(sp.StartS, end), sp.StartS+sp.DurS
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	if snap.UptimeS <= 0 || covered < 0.95*snap.UptimeS {
		var names []string
		for _, sp := range roots {
			names = append(names, sp.Name)
		}
		t.Errorf("root spans %v cover %.4fs of %.4fs uptime, want >= 95%%", names, covered, snap.UptimeS)
	}
}

// TestABSmoke: the A/B harness reruns one seeded campaign under two
// routing policies, proves each arm's serial == parallel identity, and
// reports per-arm distributions with deltas against the baseline.
func TestABSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ab.json")
	stdout, stderr, err := runCLI(context.Background(), "ab", "-small", "-days", "3", "-seed", "7",
		"-arms", "minimal/firstfit,adaptive/firstfit", "-verify", "-out", out)
	if err != nil {
		t.Fatalf("ab: %v\n%s", err, stderr)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.ABResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("%d arms, want 2", len(res.Arms))
	}
	if res.Arms[0].Hash == res.Arms[1].Hash {
		t.Errorf("both arms hash to %s; the routing policy changed nothing", res.Arms[0].Hash)
	}
	for _, arm := range res.Arms {
		if arm.Identical == nil || !*arm.Identical {
			t.Errorf("arm %s: identical = %v, want true", arm.ABArm, arm.Identical)
		}
	}
	if len(res.Deltas) < 1 {
		t.Error("no deltas against the baseline arm")
	}
	if !strings.Contains(stdout, "deltas vs baseline") {
		t.Errorf("report lacks the baseline deltas:\n%s", stdout)
	}
}

// campaignArgs is the small campaign the distributed tests run.
var campaignArgs = []string{"campaign", "-small", "-days", "8", "-seed", "7"}

var serial struct {
	once sync.Once
	gob  []byte
	err  error
}

// serialCampaign returns the cache bytes of the campaign run serially
// in-process: the reference a distributed run must reproduce.
func serialCampaign(t *testing.T) []byte {
	serial.once.Do(func() {
		dir, err := os.MkdirTemp("", "dfvar-serial")
		if err != nil {
			serial.err = err
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "serial.gob")
		if _, stderr, err := runCLI(context.Background(), append(campaignArgs, "-cache", path)...); err != nil {
			serial.err = errors.New(err.Error() + "\n" + stderr)
			return
		}
		serial.gob, serial.err = os.ReadFile(path)
	})
	if serial.err != nil {
		t.Fatalf("serial reference campaign: %v", serial.err)
	}
	return serial.gob
}

// startCoordinator runs "dfvar campaign -distribute" in-process and waits
// until it answers /healthz.
func startCoordinator(t *testing.T, extra ...string) (url string, co *background) {
	addr := freeAddr(t)
	args := append(append([]string{}, campaignArgs...), "-distribute", addr)
	co = goRun(t, append(args, extra...)...)
	url = "http://" + addr
	waitOK(t, url+"/healthz")
	return url, co
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the serial reference's %d", what, len(got), len(want))
	}
}

// TestDistributedSurvivesWorkerKill: a coordinator and two workers, one a
// real process SIGKILLed while it provably holds a lease. The campaign
// still finishes byte-identical to a serial run, and the coordinator's
// telemetry records the death and the re-dispatched lease.
func TestDistributedSurvivesWorkerKill(t *testing.T) {
	want := serialCampaign(t)
	dir := t.TempDir()
	cache := filepath.Join(dir, "dist.gob")
	snap := filepath.Join(dir, "coord-telemetry.json")
	url, co := startCoordinator(t, "-cache", cache, "-dist-checkpoint", filepath.Join(dir, "dist.ckpt"),
		"-telemetry", snap)

	victimOut := outFile(t)
	victim := startChild(t, victimOut, "worker", "-join", url, "-name", "victim")
	// freeze the worker, confirm through the (in-process) coordinator's
	// gauge that it holds a lease, then SIGKILL it mid-unit; thaw and
	// retry when the freeze landed between two leases
	pid := victim.Process.Pid
	for i := 0; ; i++ {
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			t.Fatal(err)
		}
		if telemetry.Active().Snapshot().Gauges[telemetry.GDistLeasedUnits] >= 1 {
			break
		}
		if i == 100 {
			t.Fatalf("victim never held a lease; its output:\n%s", readOut(victimOut))
		}
		if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	survivor := goRun(t, "worker", "-join", url, "-name", "survivor")
	if err := co.wait(t); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, readOut(co.stderr))
	}
	if err := survivor.wait(t); err != nil {
		t.Fatalf("survivor: %v\n%s", err, readOut(survivor.stderr))
	}

	got, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "distributed cache", got, want)
	s, err := telemetry.ReadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dist/worker_deaths_total", "dist/lease_redispatched_total"} {
		if s.Counters[name] < 1 {
			t.Errorf("%s = %d, want >= 1", name, s.Counters[name])
		}
	}
}

// TestTraceStitchesCoordinatorAndWorker: a coordinator and a worker
// process both run with -trace, and "dfvar trace" stitches their span
// files into one trace rooted at the coordinator's campaign span with at
// least one parent edge crossing the process boundary. Tracing is
// observation-only: the cache is byte-identical to an untraced serial run.
func TestTraceStitchesCoordinatorAndWorker(t *testing.T) {
	want := serialCampaign(t)
	dir := t.TempDir()
	cache := filepath.Join(dir, "dist.gob")
	coordSpans := filepath.Join(dir, "coord.spans.jsonl")
	workerSpans := filepath.Join(dir, "worker.spans.jsonl")
	url, co := startCoordinator(t, "-cache", cache, "-trace", coordSpans)

	// the worker is a real process so its spans carry their own process
	// identity and the "worker" role
	workerOut := outFile(t)
	worker := startChild(t, workerOut, "worker", "-join", url, "-name", "tracer", "-trace", workerSpans)
	if err := worker.Wait(); err != nil {
		t.Fatalf("worker: %v\n%s", err, readOut(workerOut))
	}
	if err := co.wait(t); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, readOut(co.stderr))
	}
	got, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "traced distributed cache", got, want)

	stitch := filepath.Join(dir, "stitch.json")
	report, stderr, err := runCLI(context.Background(), "trace", "-out", filepath.Join(dir, "merged.chrome.json"),
		"-json", stitch, coordSpans, workerSpans)
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, stderr)
	}
	blob, err := os.ReadFile(stitch)
	if err != nil {
		t.Fatal(err)
	}
	var sum telemetry.StitchSummary
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Roots != 1 || len(sum.RootNames) != 1 || sum.RootNames[0] != "campaign" {
		t.Errorf("roots = %d %v, want 1 [campaign]", sum.Roots, sum.RootNames)
	}
	if sum.Orphans != 0 || sum.DuplicateSpanIDs != 0 {
		t.Errorf("orphans = %d, duplicate span ids = %d, want 0 and 0", sum.Orphans, sum.DuplicateSpanIDs)
	}
	if sum.CrossProcessEdges < 1 {
		t.Errorf("cross_process_edges = %d, want >= 1", sum.CrossProcessEdges)
	}
	if len(sum.Traces) != 1 {
		t.Errorf("%d traces, want 1", len(sum.Traces))
	}
	var roles []string
	for _, f := range sum.Files {
		roles = append(roles, f.Role)
	}
	sort.Strings(roles)
	if strings.Join(roles, ",") != "coordinator,worker" {
		t.Errorf("roles = %v, want [coordinator worker]", roles)
	}
	for _, s := range []string{"dist/unit_exec", "time breakdown"} {
		if !strings.Contains(report, s) {
			t.Errorf("stitch report lacks %q:\n%s", s, report)
		}
	}
}

// outFile is a file for a run's output: an *os.File is safe to write from
// several goroutines, and the test reads it back by name.
func outFile(t *testing.T) *os.File {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func readOut(f *os.File) string {
	b, _ := os.ReadFile(f.Name())
	return string(b)
}

// startChild re-executes the test binary as the dfvar CLI. The process is
// killed when the test ends, if it is still running.
func startChild(t *testing.T, out *os.File, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	return cmd
}

// background is run executing in its own goroutine, the in-process
// stand-in for a CLI started with "&".
type background struct {
	stderr *os.File
	done   chan struct{}
	err    error
}

// goRun starts run in the background; when the test ends its context is
// cancelled and the goroutine waited for.
func goRun(t *testing.T, args ...string) *background {
	ctx, cancel := context.WithCancel(context.Background())
	b := &background{stderr: outFile(t), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		b.err = run(ctx, args, io.Discard, b.stderr)
	}()
	t.Cleanup(func() {
		cancel()
		<-b.done
	})
	return b
}

func (b *background) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-b.done:
		return b.err
	case <-time.After(2 * time.Minute):
		t.Fatalf("run did not return; stderr:\n%s", readOut(b.stderr))
		return nil
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitOK polls url until it answers 200.
func waitOK(t *testing.T, url string) {
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not ready after a minute", url)
		}
	}
}
