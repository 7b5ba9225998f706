package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"dragonvar/internal/advisor"
	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/report"
	"dragonvar/internal/stats"
)

// ABArm names one routing/placement policy pair to run the campaign under.
type ABArm struct {
	Routing   string `json:"routing"`
	Placement string `json:"placement"`
}

func (a ABArm) String() string { return a.Routing + "/" + a.Placement }

// ABConfig describes an A/B variability experiment: the same seeded
// campaign rerun under each arm's policy pair, everything else pinned.
type ABConfig struct {
	// Cluster is the base campaign configuration (seed, days, machine,
	// faults, workers). Its Net.Routing and Placement fields are
	// overwritten per arm.
	Cluster cluster.Config
	// Arms lists the policy pairs. Arm 0 is the baseline the deltas are
	// relative to.
	Arms []ABArm
	// Verify reruns every arm serially (Workers=1) and records whether the
	// campaign bytes match the parallel run — the per-policy determinism
	// contract, checked rather than assumed.
	Verify bool
	// Blame trains the interference advisor on the baseline arm's campaign
	// and feeds its blamed-user list to every later arm that uses the
	// interference placement policy, closing the paper's §V loop: detect
	// the aggressors on the unmitigated system, then place around them.
	Blame bool
}

// ABDatasetStats summarizes one dataset's per-run total times under one
// arm, following the benchmark ledger's mean/std/std_rel convention.
type ABDatasetStats struct {
	Dataset string  `json:"dataset"`
	Runs    int     `json:"runs"`
	Mean    float64 `json:"mean_sec"`
	Std     float64 `json:"std_sec"`
	StdRel  float64 `json:"std_rel"` // std / mean, the paper's variability measure
	Min     float64 `json:"min_sec"`
	Max     float64 `json:"max_sec"`
}

// ABArmResult is one arm's full outcome.
type ABArmResult struct {
	ABArm
	Hash     string           `json:"campaign_sha256"`
	Requeues int              `json:"requeues"`
	Datasets []ABDatasetStats `json:"datasets"`
	Blamed   []string         `json:"blamed_users,omitempty"`
	// Identical is set when ABConfig.Verify is on: true iff the serial
	// rerun produced byte-identical campaign bytes.
	Identical *bool `json:"identical,omitempty"`
}

// ABDelta compares one arm's dataset against the baseline arm.
type ABDelta struct {
	Arm          string  `json:"arm"`
	Dataset      string  `json:"dataset"`
	MeanDeltaPct float64 `json:"mean_delta_pct"` // (mean − base) / base × 100
	StdRelDelta  float64 `json:"std_rel_delta"`  // std_rel − base std_rel
}

// ABResult is the experiment's full outcome.
type ABResult struct {
	Seed   int64         `json:"seed"`
	Days   float64       `json:"days"`
	Faults string        `json:"faults,omitempty"`
	Arms   []ABArmResult `json:"arms"`
	Deltas []ABDelta     `json:"deltas"`
}

// RunAB reruns the same seeded campaign under each arm's policy pair and
// summarizes the per-dataset run-time distributions (Figure-3 style) with
// deltas against arm 0. Each arm regenerates from the same seed, so the
// submission schedule, fault timeline, and background load draws are
// identical across arms; only the policies differ.
func RunAB(ctx context.Context, cfg ABConfig) (*ABResult, error) {
	if len(cfg.Arms) < 2 {
		return nil, fmt.Errorf("experiments: A/B needs at least 2 arms, got %d", len(cfg.Arms))
	}
	res := &ABResult{Seed: cfg.Cluster.Seed, Days: cfg.Cluster.Days, Faults: cfg.Cluster.FaultSpec}
	var blamed []string
	for i, arm := range cfg.Arms {
		ccfg := cfg.Cluster
		ccfg.Net.Routing = arm.Routing
		ccfg.Placement = arm.Placement
		if cfg.Blame && i > 0 && arm.Placement == "interference" {
			ccfg.BlamedUsers = blamed
		}
		camp, err := runArm(ctx, ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: arm %s: %w", arm, err)
		}
		ar := ABArmResult{
			ABArm:    arm,
			Hash:     campaignSHA(camp),
			Requeues: camp.TotalRequeues(),
			Blamed:   ccfg.BlamedUsers,
		}
		for _, ds := range camp.Datasets {
			ar.Datasets = append(ar.Datasets, datasetStats(ds))
		}
		if cfg.Verify {
			serial := ccfg
			serial.Workers = 1
			scamp, err := runArm(ctx, serial)
			if err != nil {
				return nil, fmt.Errorf("experiments: arm %s serial verify: %w", arm, err)
			}
			ok := campaignSHA(scamp) == ar.Hash
			ar.Identical = &ok
		}
		res.Arms = append(res.Arms, ar)
		if cfg.Blame && i == 0 {
			blamed = advisor.Train(camp, advisor.Options{}).Blamed()
		}
	}
	base := map[string]ABDatasetStats{}
	for _, ds := range res.Arms[0].Datasets {
		base[ds.Dataset] = ds
	}
	for _, ar := range res.Arms[1:] {
		for _, ds := range ar.Datasets {
			b, ok := base[ds.Dataset]
			if !ok || b.Mean == 0 || ds.Runs == 0 {
				continue
			}
			res.Deltas = append(res.Deltas, ABDelta{
				Arm:          ar.ABArm.String(),
				Dataset:      ds.Dataset,
				MeanDeltaPct: 100 * (ds.Mean - b.Mean) / b.Mean,
				StdRelDelta:  ds.StdRel - b.StdRel,
			})
		}
	}
	return res, nil
}

// runArm regenerates the campaign for one policy configuration. No cache:
// every arm simulates from scratch so the comparison is honest.
func runArm(ctx context.Context, ccfg cluster.Config) (*dataset.Campaign, error) {
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return c.RunCampaignCtx(ctx)
}

func datasetStats(ds *dataset.Dataset) ABDatasetStats {
	st := ABDatasetStats{Dataset: ds.Name, Runs: len(ds.Runs)}
	if st.Runs == 0 {
		return st
	}
	var w stats.Welford
	for i, r := range ds.Runs {
		t := r.TotalTime()
		w.Add(t)
		if i == 0 || t < st.Min {
			st.Min = t
		}
		if t > st.Max {
			st.Max = t
		}
	}
	st.Mean = w.Mean()
	st.Std = w.Std()
	if st.Mean > 0 {
		st.StdRel = st.Std / st.Mean
	}
	return st
}

// campaignSHA hashes the campaign's gob encoding — the same byte-identity
// criterion the determinism tests use.
func campaignSHA(camp *dataset.Campaign) string {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(camp); err != nil {
		panic(err) // campaign types are gob-safe by construction
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// Render formats the A/B result as text: one Figure-3-style distribution
// table per arm, then the deltas against the baseline.
func (r *ABResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A/B variability: seed=%d days=%v", r.Seed, r.Days)
	if r.Faults != "" {
		fmt.Fprintf(&b, " faults=%q", r.Faults)
	}
	b.WriteString("\n")
	for i, ar := range r.Arms {
		role := "baseline"
		if i > 0 {
			role = fmt.Sprintf("arm %d", i)
		}
		title := fmt.Sprintf("%s %s: total run time per dataset (seconds)", role, ar.ABArm)
		t := report.NewTable(title, "dataset", "runs", "mean", "std", "std/mean", "min", "max")
		for _, ds := range ar.Datasets {
			t.AddRow(ds.Dataset, ds.Runs,
				fmt.Sprintf("%.1f", ds.Mean), fmt.Sprintf("%.1f", ds.Std),
				fmt.Sprintf("%.4f", ds.StdRel),
				fmt.Sprintf("%.1f", ds.Min), fmt.Sprintf("%.1f", ds.Max))
		}
		b.WriteString(t.String())
		if ar.Identical != nil {
			verdict := "serial == parallel: byte-identical"
			if !*ar.Identical {
				verdict = "serial != parallel: DETERMINISM VIOLATION"
			}
			fmt.Fprintf(&b, "  %s (campaign %s)\n", verdict, ar.Hash[:16])
		}
		if len(ar.Blamed) > 0 {
			fmt.Fprintf(&b, "  blamed users fed to placement: %s\n", strings.Join(ar.Blamed, ", "))
		}
	}
	if len(r.Deltas) > 0 {
		t := report.NewTable("deltas vs baseline "+r.Arms[0].ABArm.String(),
			"arm", "dataset", "mean Δ%", "std/mean Δ")
		for _, d := range r.Deltas {
			t.AddRow(d.Arm, d.Dataset,
				fmt.Sprintf("%+.2f", d.MeanDeltaPct), fmt.Sprintf("%+.4f", d.StdRelDelta))
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// WriteJSON writes the result to path, indented.
func (r *ABResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
