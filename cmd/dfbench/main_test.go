package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragonvar/internal/cli"
)

// TestAppendLedgerWrapsLegacyObject: a pre-policy ledger holding a single
// result object is wrapped into an array and its fields survive verbatim;
// new rows append.
func TestAppendLedgerWrapsLegacyObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	legacy := `{
  "benchmark": "campaign-engine",
  "seed": 42,
  "identical": true,
  "campaign_sha256": "d3c8bfd035f1e016"
}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	res := result{Benchmark: "campaign-engine", Seed: 42, Routing: "minimal",
		Placement: "firstfit", Reps: 3, Identical: true, Hash: "aaaa"}
	if _, err := appendLedger(path, res); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]interface{}
	if err := json.Unmarshal(blob, &entries); err != nil {
		t.Fatalf("ledger is not an array: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(entries))
	}
	if entries[0]["campaign_sha256"] != "d3c8bfd035f1e016" {
		t.Fatalf("legacy entry lost: %v", entries[0])
	}
	if _, ok := entries[0]["routing"]; ok {
		t.Fatal("legacy entry grew a routing field it never had")
	}
	if entries[1]["routing"] != "minimal" || entries[1]["placement"] != "firstfit" {
		t.Fatalf("new entry wrong: %v", entries[1])
	}
	// the CI determinism grep must keep matching
	if !strings.Contains(string(blob), `"identical": true`) {
		t.Fatal(`ledger lost the "identical": true marker CI greps for`)
	}

	// appending again keeps accumulating
	res.Routing = "adaptive"
	if _, err := appendLedger(path, res); err != nil {
		t.Fatal(err)
	}
	blob, _ = os.ReadFile(path)
	if err := json.Unmarshal(blob, &entries); err != nil || len(entries) != 3 {
		t.Fatalf("want 3 entries, got %d (err %v)", len(entries), err)
	}
}

// TestAppendLedgerFreshFile starts a ledger from nothing.
func TestAppendLedgerFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.json")
	if _, err := appendLedger(path, result{Benchmark: "campaign-engine", Routing: "feedback"}); err != nil {
		t.Fatal(err)
	}
	var entries []result
	blob, _ := os.ReadFile(path)
	if err := json.Unmarshal(blob, &entries); err != nil || len(entries) != 1 {
		t.Fatalf("want 1 entry, got %d (err %v)", len(entries), err)
	}
	if entries[0].Routing != "feedback" {
		t.Fatalf("row lost its policy: %+v", entries[0])
	}
}

func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, cli.ExitOK},
		{[]string{"-bogus"}, cli.ExitUsage},
	} {
		err := run(context.Background(), c.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("dfbench %v: exit %d (%v), want %d", c.args, got, err, c.want)
		}
	}
}
