package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dragonvar/internal/framelog"
)

// Pin regressorWire's gob id at init so serialized tree bytes
// don't depend on encode order within the process (see framelog.PinGob).
func init() { framelog.PinGob(regressorWire{}) }

// regressorWire is the gob wire form of a Regressor. The struct-of-arrays
// layout mirrors the node array exactly (column i describes node i), so a
// decoded tree predicts byte-identically to the fitted one: every field is
// copied verbatim, and gob round-trips float64 values exactly.
type regressorWire struct {
	Feature    []int32
	Threshold  []float64
	Left       []int32
	Right      []int32
	Value      []float64
	Importance []float64
}

// GobEncode implements gob.GobEncoder, making fitted trees persistable by
// internal/modelstore (directly, and inside boosted ensembles).
func (t *Regressor) GobEncode() ([]byte, error) {
	w := regressorWire{
		Feature:    make([]int32, len(t.nodes)),
		Threshold:  make([]float64, len(t.nodes)),
		Left:       make([]int32, len(t.nodes)),
		Right:      make([]int32, len(t.nodes)),
		Value:      make([]float64, len(t.nodes)),
		Importance: t.importance,
	}
	for i, nd := range t.nodes {
		w.Feature[i] = int32(nd.feature)
		w.Threshold[i] = nd.threshold
		w.Left[i] = nd.left
		w.Right[i] = nd.right
		w.Value[i] = nd.value
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (t *Regressor) GobDecode(b []byte) error {
	var w regressorWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	n := len(w.Feature)
	if len(w.Threshold) != n || len(w.Left) != n || len(w.Right) != n || len(w.Value) != n {
		return fmt.Errorf("tree: corrupt wire form: column lengths disagree (%d/%d/%d/%d/%d)",
			n, len(w.Threshold), len(w.Left), len(w.Right), len(w.Value))
	}
	t.nodes = make([]node, n)
	for i := range t.nodes {
		left, right := w.Left[i], w.Right[i]
		if w.Feature[i] >= 0 && (left < 0 || left >= int32(n) || right < 0 || right >= int32(n)) {
			return fmt.Errorf("tree: corrupt wire form: node %d children (%d, %d) out of [0, %d)",
				i, left, right, n)
		}
		t.nodes[i] = node{
			feature:   int(w.Feature[i]),
			threshold: w.Threshold[i],
			left:      left,
			right:     right,
			value:     w.Value[i],
		}
	}
	t.importance = w.Importance
	return nil
}
