// Package modelstore is the versioned, content-addressed persistence layer
// for trained artifacts: GBR ensembles, attention forecasters, and advisor
// blame lists, together with the feature schema they were fitted against.
// The serving daemon (cmd/dfserved) trains once and loads forever; the
// campaign daemon (cmd/dfvard) publishes its retrains here for serving
// replicas to hot-reload.
//
// # Layout
//
// A store is a directory:
//
//	<root>/objects/<aa>/<sha256-hex>.gob   immutable artifact envelopes
//	<root>/refs/<name>                     JSON ref: {"id": …, "meta": …}
//
// Objects are content-addressed: the file name is the SHA-256 of the
// encoded envelope, verified on every load, so a bit-flipped or truncated
// artifact fails with a clear error instead of serving garbage
// predictions. Refs are mutable name → id pointers (like git branches);
// putting under an existing name atomically repoints the ref while the
// old object remains addressable by id.
//
// # Publishing
//
// Put repoints a ref unconditionally; PutCAS repoints it only from the id
// the writer last saw, so concurrent publishers cannot clobber each other.
// Both share one body, and both label the object with the kind of the
// model passed (Meta.Kind is set from its type, whatever the caller put
// there), so a ref can only be loaded by the Get of that kind. A type no
// Get decodes is refused before anything is written.
//
// # Determinism
//
// The envelope carries no timestamps or hostnames: encoding the same
// trained model with the same metadata always produces the same bytes and
// therefore the same id. Combined with the models' exact float64 gob
// round-trips (see the gob tests in internal/gbr and internal/nn), a model
// trained, saved here, and loaded by dfserved predicts byte-identically
// to in-process inference — the persistence extension of the repository's
// determinism contract.
package modelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/framelog"
	"dragonvar/internal/gbr"
	"dragonvar/internal/nn"
)

// Pin the envelope's gob id at init so object bytes — and therefore
// content ids — don't depend on what other gob work a process did first
// (see framelog.PinGob); the model payloads inside envelopes pin their own
// wire types the same way.
func init() { framelog.PinGob(envelope{}) }

// Format is the envelope schema version. Bump it when the envelope layout
// changes; Get refuses envelopes from a different format with a clear
// message instead of misdecoding them.
const Format = 1

// Artifact kinds. Put sets the kind from the model's type, and Get
// validates it against the typed accessor used, so a ref to a GBR model
// cannot be loaded as a forecaster.
const (
	KindForecaster = "forecaster"
	KindGBR        = "gbr"
	KindAdvisor    = "advisor"
)

// Meta describes what an artifact was fitted on — enough for a serving
// process to validate request payloads and for an operator to audit what
// is deployed. FeatureNames is the model's column schema in input order.
type Meta struct {
	Kind         string   `json:"kind"`              // set by Put from the model's type
	Dataset      string   `json:"dataset,omitempty"` // e.g. "MILC-512"
	Seed         int64    `json:"seed"`
	Spec         string   `json:"spec,omitempty"` // e.g. "m=30 k=40 app"
	M            int      `json:"m,omitempty"`    // forecast window length
	K            int      `json:"k,omitempty"`    // forecast horizon
	FeatureNames []string `json:"feature_names,omitempty"`
}

// envelope is the on-disk artifact form: schema version, metadata, and the
// model's own gob bytes.
type envelope struct {
	Format  int
	Meta    Meta
	Payload []byte
}

// ref is the JSON form of a name → id pointer.
type ref struct {
	ID   string `json:"id"`
	Meta Meta   `json:"meta"`
}

// CorruptObjectError reports an object whose bytes no longer hash to its
// content id — a bit flip, truncation, or tampering. The store quarantines
// the damaged file by renaming it to <object>.corrupt so the next Put of
// the same artifact can heal the store instead of colliding with garbage.
type CorruptObjectError struct {
	ID          string // full content id of the damaged object
	GotHash     string // what the bytes actually hash to
	Quarantined bool   // whether the rename to *.corrupt succeeded
}

func (e *CorruptObjectError) Error() string {
	msg := fmt.Sprintf("modelstore: object %.12s: content hash mismatch (got %.12s): store corrupted",
		e.ID, e.GotHash)
	if e.Quarantined {
		msg += " (quarantined as .corrupt)"
	}
	return msg
}

// RefMovedError reports a compare-and-swap ref update that was refused
// because the ref no longer points where the writer last read it: another
// publisher advanced it in between. The caller decides whether to re-read
// and retry or to surface the conflict.
type RefMovedError struct {
	Name   string // ref name
	Expect string // id the writer believed current ("" = expected absent)
	Found  string // id actually current ("" = ref absent)
}

func (e *RefMovedError) Error() string {
	short := func(id string) string {
		if id == "" {
			return "<absent>"
		}
		if len(id) > 12 {
			return id[:12]
		}
		return id
	}
	return fmt.Sprintf("modelstore: ref %s moved: expected %s, found %s (concurrent publish?)",
		e.Name, short(e.Expect), short(e.Found))
}

// Store is a model store rooted at a directory.
type Store struct {
	root string
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "refs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("modelstore: open: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// validName reports whether a ref name is safe to use as a relative path:
// slash-separated segments of [a-zA-Z0-9._+-], no empty or dot-only
// segments, so a name can never escape the refs directory.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		for _, r := range seg {
			ok := r == '.' || r == '_' || r == '+' || r == '-' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				return false
			}
		}
	}
	return true
}

// writeAtomic writes data to path (creating its directory) via
// framelog.AtomicWrite, so a crash or full disk never leaves a truncated
// object or ref behind.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return framelog.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// objectPath maps an id to its object file.
func (s *Store) objectPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id+".gob")
}

// encodeObject builds the envelope for a model and returns its content id
// and bytes without touching disk.
func encodeObject(name string, meta Meta, model any) (string, []byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(model); err != nil {
		return "", nil, fmt.Errorf("modelstore: encode %s: %w", name, err)
	}
	var blob bytes.Buffer
	env := envelope{Format: Format, Meta: meta, Payload: payload.Bytes()}
	if err := gob.NewEncoder(&blob).Encode(env); err != nil {
		return "", nil, fmt.Errorf("modelstore: encode envelope %s: %w", name, err)
	}
	sum := sha256.Sum256(blob.Bytes())
	return hex.EncodeToString(sum[:]), blob.Bytes(), nil
}

// lockRef takes the per-ref advisory file lock (refs/<name>.lock created
// O_EXCL) that serializes ref advances across processes. Returns the
// unlock func. A holder that died without unlocking stalls writers for
// the retry budget, then surfaces the stale lock path in the error.
func (s *Store) lockRef(name string) (func(), error) {
	lockPath := filepath.Join(s.root, "refs", name+".lock")
	if err := os.MkdirAll(filepath.Dir(lockPath), 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: lock ref %s: %w", name, err)
	}
	for i := 0; i < 500; i++ {
		f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(lockPath) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("modelstore: lock ref %s: %w", name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("modelstore: ref %s: lock held too long (stale %s from a dead writer? remove it)", name, lockPath)
}

// currentRefID returns the id a ref points at, "" when the ref does not
// exist.
func (s *Store) currentRefID(name string) (string, error) {
	id, _, err := s.Resolve(name)
	if err == nil {
		return id, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	return "", err
}

func (s *Store) writeRef(name, id string, meta Meta) error {
	rj, err := encodeRef(ref{ID: id, Meta: meta})
	if err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(s.root, "refs", name), rj); err != nil {
		return fmt.Errorf("modelstore: write ref %s: %w", name, err)
	}
	return nil
}

// encodeRef renders a ref file: indented JSON and a trailing newline.
func encodeRef(r ref) ([]byte, error) {
	rj, err := json.MarshalIndent(r, "", "  ")
	return append(rj, '\n'), err
}

// decodeRef is Resolve's decode and check. The id must be what
// encodeObject writes, 64 lowercase hex digits: any other (a slash or a
// dot among them) could take objectPath outside the objects directory.
func decodeRef(blob []byte) (ref, error) {
	var r ref
	if err := json.Unmarshal(blob, &r); err != nil {
		return ref{}, err
	}
	if len(r.ID) != 64 || strings.Trim(r.ID, "0123456789abcdef") != "" {
		return ref{}, fmt.Errorf("malformed id %q", r.ID)
	}
	return r, nil
}

// Put stores a model under name, unconditionally repointing the ref (the
// last writer wins). The model is an *nn.Forecaster (meta needs M and K),
// a *gbr.Model or an *advisor.Advisor; meta.Kind is set from that type,
// whatever the caller put there. Returns the content id (SHA-256 of the
// envelope bytes). Concurrent publishers that must not clobber each other
// should use PutCAS instead.
func (s *Store) Put(name string, meta Meta, model any) (string, error) {
	return s.put(name, meta, model, nil)
}

// PutCAS is Put with compare-and-swap ref semantics: the ref advances
// only if it still points at expectID ("" = the ref must not exist yet).
// When the ref moved underneath the writer the object is still stored
// (content-addressed, harmless) but the ref is left alone and a
// *RefMovedError is returned — so two publishers can never silently
// clobber each other's advance. Advancing a ref to the id it already
// holds succeeds regardless of expectID: the store is already in the
// requested state (this is what makes a crashed publisher's retry
// idempotent).
func (s *Store) PutCAS(name string, meta Meta, model any, expectID string) (string, error) {
	return s.put(name, meta, model, &expectID)
}

// put is Put when expectID is nil and PutCAS otherwise.
func (s *Store) put(name string, meta Meta, model any, expectID *string) (string, error) {
	if !validName(name) {
		return "", fmt.Errorf("modelstore: invalid ref name %q", name)
	}
	switch model.(type) {
	case *nn.Forecaster:
		if meta.M == 0 || meta.K == 0 {
			return "", fmt.Errorf("modelstore: put %s: forecaster meta needs M and K", name)
		}
		meta.Kind = KindForecaster
	case *gbr.Model:
		meta.Kind = KindGBR
	case *advisor.Advisor:
		meta.Kind = KindAdvisor
	default:
		return "", fmt.Errorf("modelstore: put %s: unsupported model type %T", name, model)
	}
	id, blob, err := encodeObject(name, meta, model)
	if err != nil {
		return "", err
	}
	if err := writeAtomic(s.objectPath(id), blob); err != nil {
		return "", fmt.Errorf("modelstore: write object %s: %w", id[:12], err)
	}
	unlock, err := s.lockRef(name)
	if err != nil {
		return "", err
	}
	defer unlock()
	if expectID != nil {
		current, err := s.currentRefID(name)
		if err != nil {
			return "", err
		}
		if current == id {
			return id, nil
		}
		if current != *expectID {
			return "", &RefMovedError{Name: name, Expect: *expectID, Found: current}
		}
	}
	if err := s.writeRef(name, id, meta); err != nil {
		return "", err
	}
	return id, nil
}

// Resolve returns the id and metadata a ref name points at.
func (s *Store) Resolve(name string) (string, Meta, error) {
	if !validName(name) {
		return "", Meta{}, fmt.Errorf("modelstore: invalid ref name %q", name)
	}
	blob, err := os.ReadFile(filepath.Join(s.root, "refs", name))
	if err != nil {
		return "", Meta{}, fmt.Errorf("modelstore: ref %s: %w", name, err)
	}
	r, err := decodeRef(blob)
	if err != nil {
		return "", Meta{}, fmt.Errorf("modelstore: ref %s: %w", name, err)
	}
	return r.ID, r.Meta, nil
}

// get loads and validates the envelope for a ref name, checking the
// content hash, format version, and expected kind before any payload
// decoding. It returns the content id the ref resolved to, read once: a
// publish racing the load cannot pair one object with another's id.
func (s *Store) get(name, wantKind string) (*envelope, string, error) {
	id, _, err := s.Resolve(name)
	if err != nil {
		return nil, "", err
	}
	blob, err := os.ReadFile(s.objectPath(id))
	if err != nil {
		return nil, "", fmt.Errorf("modelstore: object %s: %w", id[:12], err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != id {
		// move the damaged file out of the address space so a later Put of
		// the true artifact lands on a clean path
		return nil, "", &CorruptObjectError{ID: id, GotHash: got, Quarantined: framelog.Quarantine(s.objectPath(id))}
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		return nil, "", fmt.Errorf("modelstore: decode object %s: %w", id[:12], err)
	}
	if env.Format != Format {
		return nil, "", fmt.Errorf("modelstore: object %s: format %d, this build reads %d (regenerate the store)",
			id[:12], env.Format, Format)
	}
	if env.Meta.Kind != wantKind {
		return nil, "", fmt.Errorf("modelstore: ref %s is a %s artifact, want %s", name, env.Meta.Kind, wantKind)
	}
	return &env, id, nil
}

// GetForecaster loads a forecaster and validates its window shape against
// the stored schema. id is the content id the ref resolved to.
func (s *Store) GetForecaster(name string) (f *nn.Forecaster, meta Meta, id string, err error) {
	env, id, err := s.get(name, KindForecaster)
	if err != nil {
		return nil, Meta{}, "", err
	}
	f = new(nn.Forecaster)
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(f); err != nil {
		return nil, Meta{}, "", fmt.Errorf("modelstore: decode forecaster %s: %w", name, err)
	}
	m, h := f.WindowShape()
	if m != env.Meta.M {
		return nil, Meta{}, "", fmt.Errorf("modelstore: forecaster %s: window length %d, meta says %d", name, m, env.Meta.M)
	}
	if n := len(env.Meta.FeatureNames); n != 0 && n != h {
		return nil, Meta{}, "", fmt.Errorf("modelstore: forecaster %s: %d features, schema names %d", name, h, n)
	}
	return f, env.Meta, id, nil
}

// GetGBR loads a boosted ensemble. id is the content id the ref resolved
// to.
func (s *Store) GetGBR(name string) (m *gbr.Model, meta Meta, id string, err error) {
	env, id, err := s.get(name, KindGBR)
	if err != nil {
		return nil, Meta{}, "", err
	}
	m = new(gbr.Model)
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(m); err != nil {
		return nil, Meta{}, "", fmt.Errorf("modelstore: decode gbr %s: %w", name, err)
	}
	if n := len(env.Meta.FeatureNames); n != 0 && len(m.Importance()) != 0 && n != len(m.Importance()) {
		return nil, Meta{}, "", fmt.Errorf("modelstore: gbr %s: %d importances, schema names %d", name, len(m.Importance()), n)
	}
	return m, env.Meta, id, nil
}

// GetAdvisor loads an advisor. id is the content id the ref resolved to.
func (s *Store) GetAdvisor(name string) (a *advisor.Advisor, meta Meta, id string, err error) {
	env, id, err := s.get(name, KindAdvisor)
	if err != nil {
		return nil, Meta{}, "", err
	}
	a = new(advisor.Advisor)
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(a); err != nil {
		return nil, Meta{}, "", fmt.Errorf("modelstore: decode advisor %s: %w", name, err)
	}
	return a, env.Meta, id, nil
}

// Entry is one row of List: a ref name with what it points at.
type Entry struct {
	Name string
	ID   string
	Meta Meta
}

// List returns every ref in the store, sorted by name.
func (s *Store) List() ([]Entry, error) {
	refDir := filepath.Join(s.root, "refs")
	var out []Entry
	err := filepath.WalkDir(refDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name, err := filepath.Rel(refDir, path)
		if err != nil {
			return err
		}
		name = filepath.ToSlash(name)
		// Skip transient writer droppings: per-ref CAS locks and the
		// writeAtomic temp files a concurrent publisher may have in flight.
		base := filepath.Base(path)
		if strings.HasSuffix(base, ".lock") || strings.Contains(base, ".tmp-") {
			return nil
		}
		id, meta, err := s.Resolve(name)
		if err != nil {
			return err
		}
		out = append(out, Entry{Name: name, ID: id, Meta: meta})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("modelstore: list: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Has reports whether a ref exists and resolves cleanly.
func (s *Store) Has(name string) bool {
	_, _, err := s.Resolve(name)
	return err == nil
}
