package modelstore

import (
	"encoding/hex"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzResolveRef decodes arbitrary bytes as a ref file the way Resolve
// does. No input may panic; an accepted id is a content id (64 lowercase
// hex digits) whose object path stays under <root>/objects; and an
// accepted ref, rendered again as writeRef renders it, decodes to the same
// ref.
func FuzzResolveRef(f *testing.F) {
	valid := strings.Repeat("0123456789abcdef", 4)
	for _, seed := range []string{
		`{"id": "` + valid + `", "meta": {"kind": "gbr", "seed": 1, "feature_names": ["a", "b"]}}`,
		`{"id": "` + escapeID + `", "meta": {"kind": "forecaster"}}`,
		`{"id": "0123456789ab", "meta": {}}`,
		`{"id": "` + strings.ToUpper(valid) + `", "meta": {}}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	st := &Store{root: filepath.Join("store", "root")}
	objects := filepath.Join(st.root, "objects") + string(filepath.Separator)
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := decodeRef(blob)
		if err != nil {
			return
		}
		if _, err := hex.DecodeString(r.ID); err != nil || len(r.ID) != 64 || strings.ToLower(r.ID) != r.ID {
			t.Fatalf("accepted id %q is not 64 lowercase hex digits", r.ID)
		}
		if p := st.objectPath(r.ID); filepath.Clean(p) != p || !strings.HasPrefix(p, objects) {
			t.Fatalf("id %q maps to %q, outside %s", r.ID, p, objects)
		}
		rj, err := encodeRef(r)
		if err != nil {
			t.Fatalf("accepted ref %+v does not render: %v", r, err)
		}
		back, err := decodeRef(rj)
		if err != nil {
			t.Fatalf("rendered ref %s is refused: %v", rj, err)
		}
		// omitempty renders an empty feature list as absent, which decodes
		// as nil: compare the list by content
		if !slices.Equal(back.Meta.FeatureNames, r.Meta.FeatureNames) {
			t.Fatalf("feature names %q rendered and decoded as %q", r.Meta.FeatureNames, back.Meta.FeatureNames)
		}
		back.Meta.FeatureNames, r.Meta.FeatureNames = nil, nil
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("ref %+v rendered as %s decodes to %+v", r, rj, back)
		}
	})
}
