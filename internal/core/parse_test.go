package core

import "testing"

// FuzzParseIsolation checks the parser boundary: every input either
// returns an error or parses to an Isolation whose String() parses
// back to the same Isolation.
func FuzzParseIsolation(f *testing.F) {
	for _, iso := range Isolations {
		f.Add(iso.String())
	}
	for _, s := range []string{"", "NONE", "Banks", "ways+banks", "banks+", "banks+ways+banks", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		iso, err := ParseIsolation(s)
		if err != nil {
			return
		}
		back, err := ParseIsolation(iso.String())
		if err != nil || back != iso {
			t.Fatalf("ParseIsolation(%q) = %v, but ParseIsolation(%q) = %v, %v", s, iso, iso.String(), back, err)
		}
	})
}
