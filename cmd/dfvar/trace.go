package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dragonvar/internal/cli"
	"dragonvar/internal/telemetry"
)

// cmdTrace stitches span-stream files written by -trace in several
// processes (coordinator + workers, daemon + load generator) into one
// cross-process timeline: a process table, the merged span tree's roots
// and cross-process edges, a flame summary, and the coordinator-wait vs
// worker-compute vs network/retry breakdown. Orphaned spans — a parent
// recorded in no input file — are flagged, because they usually mean a
// process's trace file was forgotten.
func cmdTrace(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("trace", stderr)
	out := fs.String("out", "",
		"also write the merged Chrome trace-event view (open in chrome://tracing or Perfetto) to this file")
	jsonOut := fs.String("json", "",
		`also write the machine-readable stitch summary to this JSON file ("-" = stdout instead of the report)`)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return cli.Usagef("trace: need at least one span file (written by -trace FILE)")
	}
	files := make([]*telemetry.TraceFile, 0, fs.NArg())
	for _, path := range fs.Args() {
		tf, err := telemetry.ReadTraceFile(path)
		if err != nil {
			return err
		}
		files = append(files, tf)
	}
	st := telemetry.StitchTraces(files)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := st.MergedTraceEvents(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dfvar: merged trace-event view written to %s\n", *out)
	}
	if *jsonOut != "" {
		enc := func(w io.Writer) error {
			e := json.NewEncoder(w)
			e.SetIndent("", "  ")
			return e.Encode(st.Summary())
		}
		if *jsonOut == "-" {
			return enc(stdout)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := enc(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dfvar: stitch summary written to %s\n", *jsonOut)
	}
	fmt.Fprint(stdout, st.Report())
	return nil
}
