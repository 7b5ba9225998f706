package telemetry

import "testing"

// FuzzParseTraceparent: ParseTraceparent never panics, and every value it
// accepts round-trips through FormatTraceparent to the same span context.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc, err := ParseTraceparent(v)
		if err != nil {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid span context", v)
		}
		again, err := ParseTraceparent(FormatTraceparent(sc))
		if err != nil {
			t.Fatalf("FormatTraceparent(ParseTraceparent(%q)) = %q does not parse: %v", v, FormatTraceparent(sc), err)
		}
		if again != sc {
			t.Fatalf("%q round-trips to %+v, want %+v", v, again, sc)
		}
	})
}
