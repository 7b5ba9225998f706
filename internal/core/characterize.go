package core

import (
	"context"
	"fmt"
	"os"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/telemetry"
)

// PerfPoint is one run of Figure 1: campaign day versus performance
// relative to the dataset's best observed run (1.0 = best, 3.0 = 3× slower).
type PerfPoint struct {
	Day      int
	Relative float64
}

// RelativePerformance produces the Figure 1 series for one dataset.
func RelativePerformance(ds *dataset.Dataset) []PerfPoint {
	best := ds.BestTotalTime()
	if best <= 0 {
		return nil
	}
	out := make([]PerfPoint, len(ds.Runs))
	for i, r := range ds.Runs {
		out[i] = PerfPoint{Day: r.Day, Relative: r.TotalTime() / best}
	}
	return out
}

// MaxRelative returns the worst relative performance in a Figure 1 series
// (the paper's "up to 3× slower" headline).
func MaxRelative(points []PerfPoint) float64 {
	var m float64
	for _, p := range points {
		if p.Relative > m {
			m = p.Relative
		}
	}
	return m
}

// CampaignConfig couples the cluster configuration with a cache path so
// every consumer (CLI, benches, examples) shares one generated campaign.
type CampaignConfig struct {
	Cluster   cluster.Config
	CachePath string // optional gob cache
}

// LoadOrGenerate returns the campaign from the cache when present (and
// matching seed/days), generating and caching it otherwise.
func LoadOrGenerate(cfg CampaignConfig) (*dataset.Campaign, error) {
	return LoadOrGenerateCtx(context.Background(), cfg)
}

// LoadOrGenerateCtx is LoadOrGenerate with cancellation. A cached campaign
// marked Partial never satisfies the lookup (it is regenerated in full).
// When generation is interrupted, the completed runs are still flushed to
// the cache as a Partial campaign — resuming costs a regeneration, but an
// inspectable dataset beats losing hours of simulation — and the partial
// campaign is returned alongside ctx's error.
func LoadOrGenerateCtx(ctx context.Context, cfg CampaignConfig) (*dataset.Campaign, error) {
	if cfg.Cluster.Days <= 0 {
		cfg.Cluster.Days = 130 // keep the cache check consistent with cluster defaults
	}
	wantRouting, wantPlacement := cfg.Cluster.EffectivePolicies()
	if cfg.CachePath != "" {
		if camp, err := dataset.Load(cfg.CachePath); err == nil {
			if !camp.Partial && camp.Seed == cfg.Cluster.Seed && camp.Days == cfg.Cluster.Days &&
				camp.Faults == cfg.Cluster.FaultSpec &&
				camp.Routing == wantRouting && camp.Placement == wantPlacement {
				return camp, nil
			}
			if camp.Partial {
				fmt.Fprintf(os.Stderr, "core: cache %s is a partial campaign; regenerating\n", cfg.CachePath)
			} else {
				fmt.Fprintf(os.Stderr, "core: cache %s is for seed=%d days=%v faults=%q routing=%q placement=%q; regenerating\n",
					cfg.CachePath, camp.Seed, camp.Days, camp.Faults, camp.Routing, camp.Placement)
			}
		}
	}
	// a root span: the campaign span only opens once the cluster exists
	_, newSpan := telemetry.Start(ctx, telemetry.SpanClusterNew)
	c, err := cluster.New(cfg.Cluster)
	newSpan.End()
	if err != nil {
		return nil, err
	}
	camp, err := c.RunCampaignCtx(ctx)
	if err != nil {
		if camp != nil && camp.Partial && cfg.CachePath != "" && camp.TotalRuns() > 0 {
			if serr := camp.Save(cfg.CachePath); serr != nil {
				fmt.Fprintf(os.Stderr, "core: could not flush partial campaign: %v\n", serr)
			} else {
				fmt.Fprintf(os.Stderr, "core: interrupted; flushed partial campaign (%d runs) to %s\n",
					camp.TotalRuns(), cfg.CachePath)
			}
		}
		return camp, err
	}
	if cfg.CachePath != "" {
		if err := camp.Save(cfg.CachePath); err != nil {
			fmt.Fprintf(os.Stderr, "core: could not cache campaign: %v\n", err)
		}
	}
	return camp, nil
}
