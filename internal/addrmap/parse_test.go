package addrmap

import "testing"

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
}

// TestParseSchemeErrorDeterministic pins the valid-name list in the
// error to the Schemes declaration order: two calls must produce
// byte-identical messages. A map-ordered implementation fails this
// almost surely within a few runs.
func TestParseSchemeErrorDeterministic(t *testing.T) {
	_, err1 := ParseScheme("nope")
	_, err2 := ParseScheme("nope")
	if err1 == nil || err2 == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("error message varies between calls:\n%s\n%s", err1, err2)
	}
	want := `addrmap: unknown scheme "nope" (valid: RoRaBaCoCh, RoRaBaChCo, RoRaChBaCo, RoChRaBaCo)`
	if err1.Error() != want {
		t.Fatalf("error = %q, want %q", err1, want)
	}
}

// FuzzParseScheme checks the parser boundary: every input either
// returns an error or parses to a Scheme whose String() parses back to
// the same Scheme.
func FuzzParseScheme(f *testing.F) {
	for _, s := range Schemes {
		f.Add(s.String())
	}
	for _, s := range []string{"", "nope", "Scheme(7)", "rorabacoch", "RoRaBaCoCh ", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseScheme(name)
		if err != nil {
			return
		}
		back, err := ParseScheme(s.String())
		if err != nil || back != s {
			t.Fatalf("ParseScheme(%q) = %v, but ParseScheme(%q) = %v, %v", name, s, s.String(), back, err)
		}
	})
}
