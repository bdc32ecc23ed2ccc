package decoders

import "testing"

func TestSchemeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Schemes() {
		if seen[e.Name] {
			t.Errorf("duplicate scheme name %q", e.Name)
		}
		seen[e.Name] = true
	}
}
