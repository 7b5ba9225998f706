// Package cli is the harness every binary in cmd/ runs on. Main installs
// the shutdown-signal contract, calls the binary's testable
// run(ctx, args, stdout, stderr) and maps its error onto one exit-code
// convention. The package also owns the flags whose meaning is the same in
// every binary: -telemetry/-pprof, the simulation -workers count and the
// checks of -routing/-placement policy names and -faults specs.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dragonvar/internal/cluster"
	"dragonvar/internal/engine"
	"dragonvar/internal/faults"
	"dragonvar/internal/routing"
	"dragonvar/internal/slurm"
	"dragonvar/internal/topology"
)

// Exit codes Main maps a run error onto.
const (
	ExitOK      = 0 // success, or -h/-help
	ExitFailure = 1 // runtime failure
	ExitUsage   = 2 // bad command line
	// ExitInterrupted is 128+SIGINT, the convention shells use for
	// signal-terminated commands.
	ExitInterrupted = 130
)

// RunFunc is a binary's body: it reads its command line from args and
// writes only to stdout and stderr, so tests can call it in-process.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main runs a binary: the first SIGINT/SIGTERM cancels run's context, and
// the returned error is printed as "name: err" and mapped to the exit code
// by ExitCode. It does not return.
func Main(name string, run RunFunc) {
	ctx, stop := WithShutdown(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}

// ExitCode maps a run error onto the process exit status: nil or
// flag.ErrHelp → 0, context.Canceled → 130, a usage error → 2, anything
// else → 1.
func ExitCode(err error) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return ExitOK
	case errors.Is(err, context.Canceled):
		return ExitInterrupted
	case errors.As(err, &ue):
		return ExitUsage
	default:
		return ExitFailure
	}
}

// usageError marks bad command-line input.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef returns a usage error (exit 2) with a formatted message.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// NewFlagSet returns a flag set that reports parse errors instead of
// exiting and prints its messages to stderr.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs: -h comes back as flag.ErrHelp and any other
// failure as a usage error.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

// Workers defines -workers, the simulation worker count. Any value gives
// byte-identical output.
func Workers(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "workers", 0,
		"simulation worker count (0 = $"+engine.EnvWorkers+" or GOMAXPROCS); results are identical for any value")
}

// Policies checks a routing and a placement policy name ("" selects the
// default) and returns a usage error listing the known names, so a typo
// stops a binary before it simulates or writes any state.
func Policies(routingPolicy, placementPolicy string) error {
	if routingPolicy != "" && !routing.ValidPolicy(routingPolicy) {
		return Usagef("unknown routing policy %q (have %s)",
			routingPolicy, strings.Join(routing.PolicyNames(), ", "))
	}
	if placementPolicy != "" && !slurm.ValidPlacementPolicy(placementPolicy) {
		return Usagef("unknown placement policy %q (have %s)",
			placementPolicy, strings.Join(slurm.PlacementPolicyNames(), ", "))
	}
	return nil
}

// Faults parses cfg's fault spec as cluster.New parses it, so a typo in
// -faults is a usage error before a binary simulates or writes any state.
// Explicit clauses name links and routers, so the parse needs cfg's
// machine; an empty spec needs nothing.
func Faults(cfg cluster.Config) error {
	if cfg.FaultSpec == "" {
		return nil
	}
	cfg = cfg.Resolved()
	topo, err := topology.New(cfg.Machine)
	if err != nil {
		return err
	}
	if _, err := faults.Parse(cfg.FaultSpec, topo, cfg.Days*86400, cfg.Seed); err != nil {
		return Usagef("-faults: %w", err)
	}
	return nil
}
