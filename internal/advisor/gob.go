package advisor

import (
	"bytes"
	"encoding/gob"
	"sort"

	"dragonvar/internal/framelog"
)

// Pin advisorWire's gob id at init so serialized advisor bytes
// don't depend on encode order within the process (see framelog.PinGob).
func init() { framelog.PinGob(advisorWire{}) }

// advisorWire is the gob wire form of a trained advisor: the learned blame
// list (sorted, so equal advisors encode to equal bytes) and the first
// evaluation day of the train/eval split.
type advisorWire struct {
	Blamed   []string
	TrainEnd int
}

// GobEncode implements gob.GobEncoder, making trained advisors persistable
// by internal/modelstore.
func (a *Advisor) GobEncode() ([]byte, error) {
	w := advisorWire{Blamed: make([]string, 0, len(a.blamed)), TrainEnd: a.trainEnd}
	for u := range a.blamed {
		w.Blamed = append(w.Blamed, u)
	}
	sort.Strings(w.Blamed)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (a *Advisor) GobDecode(b []byte) error {
	var w advisorWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	a.blamed = make(map[string]bool, len(w.Blamed))
	for _, u := range w.Blamed {
		a.blamed[u] = true
	}
	a.trainEnd = w.TrainEnd
	return nil
}
