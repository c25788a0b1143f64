package sched

import (
	"strings"
	"testing"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range append(append([]Kind{}, Kinds...), QoS) {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
		lower, err := ParseKind(strings.ToLower(k.String()))
		if err != nil || lower != k {
			t.Fatalf("ParseKind(%q) = %v, %v", strings.ToLower(k.String()), lower, err)
		}
	}
}

// TestParseKindErrorDeterministic pins the valid-name list in the
// error to declaration order: two calls must produce byte-identical
// messages, and the names must appear in the Kinds-then-QoS order the
// docs promise. A map-ordered implementation fails this almost surely
// within a few runs.
func TestParseKindErrorDeterministic(t *testing.T) {
	_, err1 := ParseKind("nope")
	_, err2 := ParseKind("nope")
	if err1 == nil || err2 == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("error message varies between calls:\n%s\n%s", err1, err2)
	}
	want := `sched: unknown scheduling algorithm "nope" (valid: FR-FCFS, FCFS_Banks, PAR-BS, ATLAS, RL, QoS)`
	if err1.Error() != want {
		t.Fatalf("error = %q, want %q", err1, want)
	}
}

// FuzzParseKind checks the parser boundary: every input either
// returns an error or parses to a Kind whose String() parses back to
// the same Kind.
func FuzzParseKind(f *testing.F) {
	for _, k := range allKinds {
		f.Add(k.String())
		f.Add(strings.ToLower(k.String()))
	}
	for _, s := range []string{"", "nope", "Kind(9)", "atlas ", "FR_FCFS", "ATLAſ", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		k, err := ParseKind(name)
		if err != nil {
			return
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, but ParseKind(%q) = %v, %v", name, k, k.String(), back, err)
		}
	})
}
