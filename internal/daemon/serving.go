package daemon

import (
	"fmt"
	"strings"

	"dragonvar/internal/advisor"
	"dragonvar/internal/core"
	"dragonvar/internal/dataset"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
)

// Serving is one serving configuration: the dataset whose forecaster and
// deviation model are served, the forecaster's window spec, the seed, and
// the -fast training preset. It is the one path from a campaign to the
// modelstore for the three served models, shared by dfserved (which trains
// the refs its store lacks and Puts them) and the daemon (which retrains
// all three and PutCASes them).
type Serving struct {
	Dataset string
	Seed    int64
	Spec    core.ForecastSpec
	Fast    bool
}

// ServedKinds are the served model kinds in training and publishing order.
var ServedKinds = [...]string{modelstore.KindForecaster, modelstore.KindGBR, modelstore.KindAdvisor}

// Ref returns the modelstore ref the served model of kind is published
// under. dfserved and the daemon derive their refs here, so a daemon and a
// serving replica pointed at the same store and spec meet on the same refs.
func (s Serving) Ref(kind string) string {
	switch kind {
	case modelstore.KindForecaster:
		slug := strings.ReplaceAll(s.Spec.Features.String(), " + ", "+")
		return fmt.Sprintf("forecast/%s/m%d-k%d-%s", s.Dataset, s.Spec.M, s.Spec.K, slug)
	case modelstore.KindGBR:
		return "deviation/" + s.Dataset
	}
	return fmt.Sprintf("advisor/seed%d", s.Seed)
}

// Train trains the served model of kind on camp from the training seed
// seed, and returns it with the Meta it is published under.
func (s Serving) Train(camp *dataset.Campaign, kind string, seed int64) (any, modelstore.Meta, error) {
	meta := modelstore.Meta{Seed: s.Seed}
	if kind == modelstore.KindAdvisor {
		return advisor.Train(camp, advisor.Options{}), meta, nil
	}
	ds := camp.Get(s.Dataset)
	if ds == nil {
		var names []string
		for _, d := range camp.Datasets {
			names = append(names, d.Name)
		}
		return nil, meta, fmt.Errorf("campaign has no dataset %q (have: %s)", s.Dataset, strings.Join(names, ", "))
	}
	meta.Dataset = s.Dataset
	fo, do := core.ServingOptions(s.Fast)
	if kind == modelstore.KindGBR {
		meta.FeatureNames = core.DeviationFeatureNames()
		m, _, err := core.TrainServingDeviation(ds, do, seed)
		return m, meta, err
	}
	meta.Spec, meta.M, meta.K, meta.FeatureNames = s.Spec.String(), s.Spec.M, s.Spec.K, s.Spec.Features.Names()
	f, _, err := core.TrainServingForecaster(ds, s.Spec, fo, seed)
	return f, meta, err
}

// Samples returns the forecast windows of ds as the served forecaster
// trains on them.
func (s Serving) Samples(ds *dataset.Dataset) []nn.Sample {
	fo, _ := core.ServingOptions(s.Fast)
	return core.ForecastSamples(ds, s.Spec, fo.Gaps)
}
