package modelstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dragonvar/internal/gbr"
	"dragonvar/internal/linalg"
	"dragonvar/internal/rng"
)

// tinyGBRSeed fits a small model whose content varies with the seed, so
// concurrent writers publish distinct objects.
func tinyGBRSeed(seed int64) *gbr.Model {
	s := rng.New(seed)
	x := linalg.NewMatrix(80, 3)
	y := make([]float64, 80)
	for i := 0; i < 80; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, s.Float64())
		}
		y[i] = 3*x.At(i, 0) + x.At(i, 1)
	}
	return gbr.Fit(x, y, nil, nil, gbr.Options{NumTrees: 5}, s)
}

func TestPutCASBasics(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)

	// First publish: the ref must not exist yet, expect "".
	id1, err := st.PutCAS("deviation/TEST", Meta{Seed: 1}, m, "")
	if err != nil {
		t.Fatal(err)
	}
	// Stale expect ("" again) is refused now that the ref exists...
	m2 := tinyGBRSeed(9) // different training seed, different content
	if _, err := st.PutCAS("deviation/TEST", Meta{Seed: 2}, m2, ""); err == nil {
		t.Fatal("stale CAS publish succeeded, want RefMovedError")
	} else {
		var moved *RefMovedError
		if !errors.As(err, &moved) {
			t.Fatalf("stale CAS error = %v, want RefMovedError", err)
		}
		if moved.Found != id1 {
			t.Fatalf("RefMovedError.Found = %s, want %s", moved.Found, id1)
		}
	}
	// ...but the correct expect advances the ref.
	id2, err := st.PutCAS("deviation/TEST", Meta{Seed: 2}, m2, id1)
	if err != nil {
		t.Fatal(err)
	}
	if cur, _, err := st.Resolve("deviation/TEST"); err != nil || cur != id2 {
		t.Fatalf("ref = %s (%v), want %s", cur, err, id2)
	}

	// Republishing the identical model with a stale expect is a success:
	// the ref already points at the content being published (the
	// crashed-publisher retry case).
	if id, err := st.PutCAS("deviation/TEST", Meta{Seed: 2}, m2, "bogus"); err != nil || id != id2 {
		t.Fatalf("idempotent republish = %s, %v; want %s, nil", id, err, id2)
	}
}

func TestPutCASConcurrentPublishers(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := trainTinyGBR(t)
	baseID, err := st.PutCAS("deviation/RACE", Meta{Seed: 1}, base, "")
	if err != nil {
		t.Fatal(err)
	}

	// N writers race to advance the same ref from the same snapshot:
	// exactly one CAS may win, the rest must see RefMovedError. No
	// torn refs, no silent clobbers.
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := tinyGBRSeed(int64(100 + i)) // distinct content per writer
			_, errs[i] = st.PutCAS("deviation/RACE", Meta{Seed: int64(i)}, m, baseID)
		}(i)
	}
	wg.Wait()

	won := 0
	for i, err := range errs {
		switch {
		case err == nil:
			won++
		default:
			var moved *RefMovedError
			if !errors.As(err, &moved) {
				t.Fatalf("writer %d: %v, want RefMovedError", i, err)
			}
		}
	}
	if won != 1 {
		t.Fatalf("%d writers won the CAS, want exactly 1 (errs: %v)", won, errs)
	}
	// The ref moved off the base and resolves to a valid object.
	cur, _, err := st.Resolve("deviation/RACE")
	if err != nil {
		t.Fatal(err)
	}
	if cur == baseID {
		t.Fatal("ref still at base id after a winning CAS")
	}
	if _, _, _, err := st.GetGBR("deviation/RACE"); err != nil {
		t.Fatalf("winning ref unreadable: %v", err)
	}
}

func TestListSkipsLockFiles(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("deviation/DS-%d", i)
		if _, err := st.Put(name, Meta{Seed: int64(i)}, m); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("List = %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name, ".lock") {
			t.Fatalf("List leaked lock file %q", e.Name)
		}
	}
}
