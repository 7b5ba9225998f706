package gbr

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dragonvar/internal/framelog"
	"dragonvar/internal/tree"
)

// Pin modelWire's gob id at init so serialized ensemble bytes
// don't depend on encode order within the process (see framelog.PinGob).
func init() { framelog.PinGob(modelWire{}) }

// modelWire is the gob wire form of a fitted ensemble. Trees serialize
// through their own GobEncode, so the round trip preserves every split
// threshold and leaf value bit-for-bit: a loaded model's Predict is
// byte-identical to the in-memory model's.
type modelWire struct {
	Bias         float64
	LearningRate float64
	Trees        []*tree.Regressor
	Importance   []float64
}

// GobEncode implements gob.GobEncoder, making fitted ensembles persistable
// by internal/modelstore.
func (m *Model) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(modelWire{
		Bias:         m.bias,
		LearningRate: m.lr,
		Trees:        m.trees,
		Importance:   m.importance,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Model) GobDecode(b []byte) error {
	var w modelWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	for i, t := range w.Trees {
		if t == nil {
			return fmt.Errorf("gbr: corrupt wire form: tree %d is nil", i)
		}
	}
	m.bias = w.Bias
	m.lr = w.LearningRate
	m.trees = w.Trees
	m.importance = w.Importance
	return nil
}
