package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/telemetry"
)

// childEnv marks this test binary re-executed as the dfvard CLI.
const childEnv = "DFVARD_TEST_CLI"

// TestMain doubles as the dfvard CLI when a test re-executes this binary
// to SIGKILL it.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		cli.Main("dfvard", run)
	}
	os.Exit(m.Run())
}

// daemonArgs is a fast retrain schedule with an aggressive drift
// threshold, so two short epochs exercise retrains and drift.
var daemonArgs = []string{"-small", "-fast", "-seed", "7", "-days", "11", "-max-epochs", "2",
	"-window-runs", "4", "-retrain-windows", "2", "-drift-factor", "0.01", "-drift-windows", "1"}

func runCLI(args ...string) (stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return errb.String(), err
}

// dirs returns the -state/-store flags for state and model directories
// under root.
func dirs(root, prefix string) []string {
	return []string{"-state", filepath.Join(root, prefix+"-state"), "-store", filepath.Join(root, prefix+"-models")}
}

func TestExitCodes(t *testing.T) {
	d := dirs(t.TempDir(), "x")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, cli.ExitOK},
		{[]string{"-bogus"}, cli.ExitUsage},
		{append(d, "-features", "bogus"), cli.ExitUsage},
		// network weather comes from "dfldms analyze", not the daemon
		{append(d, "-small", "-fast", "-days", "1", "-max-epochs", "1", "-monitor", "-"), cli.ExitUsage},
	} {
		_, err := runCLI(c.args...)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("dfvard %v: exit %d (%v), want %d", c.args, got, err, c.want)
		}
	}
}

// TestPprofBindFailureIsFatal: -pprof on an address already in use stops
// the daemon before it writes any state.
func TestPprofBindFailureIsFatal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	root := t.TempDir()
	if _, err := runCLI(append(dirs(root, "x"), "-pprof", ln.Addr().String())...); err == nil {
		t.Fatal("dfvard ran with -pprof on an address already in use")
	}
	for _, d := range []string{"x-state", "x-models"} {
		if _, err := os.Stat(filepath.Join(root, d)); !os.IsNotExist(err) {
			t.Errorf("%s exists after the failed start (stat: %v)", d, err)
		}
	}
}

// TestBadPolicyWritesNoState: a misspelled -routing, $DRAGONVAR_PLACEMENT
// or -faults clause is a usage error raised before the state directory is
// bound to it, so the corrected rerun starts clean.
func TestBadPolicyWritesNoState(t *testing.T) {
	for _, c := range []struct {
		flags []string
		env   string
	}{
		{flags: []string{"-routing", "minmal"}},
		{env: "firstfitt"},
		{flags: []string{"-faults", "bogus"}},
	} {
		t.Setenv(cluster.EnvPlacement, c.env)
		root := t.TempDir()
		args := append(append(dirs(root, "x"), "-small", "-max-epochs", "1"), c.flags...)
		if _, err := runCLI(args...); cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("dfvard %v with $%s=%q: exit %d (%v), want %d",
				c.flags, cluster.EnvPlacement, c.env, cli.ExitCode(err), err, cli.ExitUsage)
		}
		for _, d := range []string{"x-state", "x-models"} {
			if _, err := os.Stat(filepath.Join(root, d)); !os.IsNotExist(err) {
				t.Errorf("%s exists after the refused start (stat: %v)", d, err)
			}
		}
	}
}

// readTree maps every file under root, by relative path, to its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func sameTree(t *testing.T, a, b string) {
	t.Helper()
	ta, tb := readTree(t, a), readTree(t, b)
	for name, blob := range ta {
		other, ok := tb[name]
		if !ok {
			t.Errorf("%s: only in %s", name, a)
		} else if !bytes.Equal(blob, other) {
			t.Errorf("%s differs between %s and %s", name, a, b)
		}
	}
	for name := range tb {
		if _, ok := ta[name]; !ok {
			t.Errorf("%s: only in %s", name, b)
		}
	}
}

func counter(t *testing.T, snapPath, name string) int64 {
	t.Helper()
	s, err := telemetry.ReadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	return s.Counters[name]
}

// TestKillResumeIsByteIdentical runs the daemon uninterrupted, then again
// as a real process SIGKILLed mid-window and resumed from its checkpoint:
// the run stream, the publish log and the model store must come out
// byte-identical, with drift detected and the published forecast advancing.
func TestKillResumeIsByteIdentical(t *testing.T) {
	root := t.TempDir()
	ref := dirs(root, "ref")
	refSnap := filepath.Join(root, "ref-telemetry.json")
	if stderr, err := runCLI(append(append(ref, daemonArgs...), "-telemetry", refSnap)...); err != nil {
		t.Fatalf("reference run: %v\n%s", err, stderr)
	}

	live := dirs(root, "live")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprof := ln.Addr().String()
	ln.Close()
	out, err := os.Create(filepath.Join(root, "live1.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	child := exec.Command(os.Args[0], append(append(live, daemonArgs...), "-pprof", pprof)...)
	child.Env = append(os.Environ(), childEnv+"=1")
	child.Stdout, child.Stderr = out, out
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		child.Wait()
	}()
	defer func() {
		child.Process.Kill()
		<-exited
	}()
	// wait for the ingest counter to sit mid-window past the first
	// retrains (not on a seal multiple, so the kill cannot land inside a
	// modelstore publish)
	var runs float64
	for int(runs) < 17 || int(runs)%4 == 0 {
		select {
		case <-exited:
			log, _ := os.ReadFile(out.Name())
			t.Fatalf("daemon exited before it could be killed mid-window (%v runs):\n%s", runs, log)
		case <-time.After(5 * time.Millisecond):
		}
		runs, _ = metric("http://"+pprof+"/metrics", "daemon_runs_ingested_total")
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	t.Logf("dfvard SIGKILLed after %v ingested runs", runs)

	liveSnap := filepath.Join(root, "live-telemetry.json")
	if stderr, err := runCLI(append(append(live, daemonArgs...), "-telemetry", liveSnap)...); err != nil {
		t.Fatalf("resume: %v\n%s", err, stderr)
	}

	// the run stream (sealed segments + WAL) and the publish log;
	// checkpoint.gob is excluded by design (the resumed file carries extra
	// replayed records)
	sameTree(t, filepath.Join(root, "ref-state", "stream"), filepath.Join(root, "live-state", "stream"))
	refPub, err := os.ReadFile(filepath.Join(root, "ref-state", "published.json"))
	if err != nil {
		t.Fatal(err)
	}
	livePub, err := os.ReadFile(filepath.Join(root, "live-state", "published.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refPub, livePub) {
		t.Errorf("published.json differs after kill and resume:\nref  %s\nlive %s", refPub, livePub)
	}
	// the full published model chain: identical objects, identical refs
	sameTree(t, filepath.Join(root, "ref-models"), filepath.Join(root, "live-models"))

	if n := counter(t, refSnap, "daemon/retrains_total"); n < 2 {
		t.Errorf("reference daemon/retrains_total = %d, want >= 2", n)
	}
	if n := counter(t, refSnap, "daemon/drift_retrains_total"); n < 1 {
		t.Errorf("reference daemon/drift_retrains_total = %d, want >= 1", n)
	}
	if n := counter(t, liveSnap, "daemon/retrains_total"); n < 1 {
		t.Errorf("resumed daemon/retrains_total = %d, want >= 1", n)
	}
	var pubs []struct {
		Forecast string `json:"forecast"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal(livePub, &pubs); err != nil {
		t.Fatal(err)
	}
	if len(pubs) < 2 || pubs[0].Forecast == pubs[len(pubs)-1].Forecast {
		t.Errorf("published forecast did not advance: %s", livePub)
	}
	drift := false
	for _, p := range pubs {
		drift = drift || p.Reason == "drift"
	}
	if !drift {
		t.Errorf("no drift retrain in the live published.json: %s", livePub)
	}
}

// metric scrapes an OpenMetrics endpoint for the sample line of name.
func metric(url, name string) (float64, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}
