package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dragonvar/internal/cli"
	"dragonvar/internal/experiments"
)

// cmdAB runs the A/B variability harness: the same seeded campaign rerun
// under each routing/placement arm, with Figure-3-style run-time
// distributions and deltas against the first arm.
func cmdAB(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("ab", stderr)
	var c commonFlags
	addCommon(fs, &c)
	arms := fs.String("arms", "minimal/firstfit,adaptive/firstfit",
		`comma-separated ROUTING/PLACEMENT arms; the first is the baseline deltas are relative to`)
	out := fs.String("out", "", "also write the result as JSON to this file")
	verify := fs.Bool("verify", false,
		"rerun each arm serially and assert the campaign bytes match the parallel run")
	blame := fs.Bool("blame", false,
		"train the interference advisor on the baseline arm and feed its blamed users to interference arms")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if c.routing != "" || c.placement != "" {
		return cli.Usagef("ab: policies come from -arms, not -routing/-placement")
	}
	parsed, err := parseArms(*arms)
	if err != nil {
		return cli.Usagef("ab: %w", err)
	}
	flush, err := c.tm.Start("dfvar", stderr)
	if err != nil {
		return err
	}
	defer flush()

	cfg := experiments.ABConfig{
		Cluster: c.clusterConfig(stderr),
		Arms:    parsed,
		Verify:  *verify,
		Blame:   *blame,
	}
	res, err := experiments.RunAB(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Render())
	if *out != "" {
		if err := res.WriteJSON(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *verify {
		for _, ar := range res.Arms {
			if ar.Identical != nil && !*ar.Identical {
				return fmt.Errorf("ab: arm %s violated the serial == parallel contract", ar.ABArm)
			}
		}
	}
	return nil
}

// parseArms parses "minimal/firstfit,adaptive/compact" into arms,
// validating each policy name.
func parseArms(spec string) ([]experiments.ABArm, error) {
	var arms []experiments.ABArm
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rp := strings.Split(part, "/")
		if len(rp) != 2 || rp[0] == "" || rp[1] == "" {
			return nil, fmt.Errorf("arm %q is not ROUTING/PLACEMENT", part)
		}
		if err := cli.Policies(rp[0], rp[1]); err != nil {
			return nil, fmt.Errorf("arm %q: %w", part, err)
		}
		arms = append(arms, experiments.ABArm{Routing: rp[0], Placement: rp[1]})
	}
	if len(arms) < 2 {
		return nil, fmt.Errorf("need at least 2 arms, got %d", len(arms))
	}
	return arms, nil
}
