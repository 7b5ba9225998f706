package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dragonvar/internal/framelog"
)

// Pin forecasterWire's gob id at init so serialized model bytes
// don't depend on encode order within the process (see framelog.PinGob).
func init() { framelog.PinGob(forecasterWire{}) }

// forecasterWire is the gob wire form of a trained forecaster: the
// hyperparameters that fix the parameter layout, the flat parameter
// vector, and the normalization statistics fitted on the training set.
// carve() rebuilds the named views after decoding, so a loaded model's
// forward pass touches exactly the same float64 values as the trained
// one — predictions are byte-identical.
type forecasterWire struct {
	Cfg         Config
	M, H        int
	Params      []float64
	FeatMu      []float64
	FeatSigma   []float64
	YMu, YSigma float64
}

// GobEncode implements gob.GobEncoder, making trained forecasters
// persistable by internal/modelstore.
func (f *Forecaster) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(forecasterWire{
		Cfg:       f.cfg,
		M:         f.m,
		H:         f.h,
		Params:    f.params,
		FeatMu:    f.featMu,
		FeatSigma: f.featSigma,
		YMu:       f.yMu,
		YSigma:    f.ySigma,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (f *Forecaster) GobDecode(b []byte) error {
	var w forecasterWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	cfg := w.Cfg.withDefaults()
	d, p := cfg.EmbedDim, cfg.HiddenDim
	// A valid layout has every dimension at most the parameter count;
	// checking that first keeps the layout arithmetic from overflowing.
	if n := len(w.Params); w.M <= 0 || w.H <= 0 || w.M > n || w.H > n || d > n || p > n {
		return fmt.Errorf("nn: corrupt wire form: window %d×%d, dims d=%d p=%d for %d parameters", w.M, w.H, d, p, n)
	}
	want := w.H*d + d + w.M*d + d*d + d*d + d + d*p + p + p + 1
	if len(w.Params) != want {
		return fmt.Errorf("nn: corrupt wire form: %d parameters, layout needs %d (m=%d h=%d d=%d p=%d)",
			len(w.Params), want, w.M, w.H, d, p)
	}
	if len(w.FeatMu) != w.H || len(w.FeatSigma) != w.H {
		return fmt.Errorf("nn: corrupt wire form: normalization stats cover %d/%d features, window has %d",
			len(w.FeatMu), len(w.FeatSigma), w.H)
	}
	f.cfg = cfg
	f.m, f.h = w.M, w.H
	f.params = w.Params
	f.featMu, f.featSigma = w.FeatMu, w.FeatSigma
	f.yMu, f.ySigma = w.YMu, w.YSigma
	f.carve()
	return nil
}

// WindowShape returns the fitted window geometry: m history steps of h
// features each — the input contract of Predict. Serving code validates
// request payloads against it.
func (f *Forecaster) WindowShape() (m, h int) { return f.m, f.h }
