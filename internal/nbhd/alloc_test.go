//go:build !race

package nbhd

import (
	"testing"

	"hidinglcp/internal/decoders"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// TestPairSetSteadyStateAllocs pins the CSR edge accumulator at zero
// allocations once the membership table has grown to the working-set size —
// the property that lets the builders absorb millions of duplicate
// compatibility edges without touching the heap. The race detector
// instruments allocations, so this runs only in plain builds.
func TestPairSetSteadyStateAllocs(t *testing.T) {
	var s pairSet
	for a := view.Handle(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			s.add(packPair(a, b))
		}
	}
	want := s.len()
	if n := testing.AllocsPerRun(100, func() {
		for a := view.Handle(0); a < 40; a++ {
			for b := a + 1; b < 40; b++ {
				s.add(packPair(a, b))
			}
		}
	}); n != 0 {
		t.Errorf("re-adding present pairs allocates %.1f objects per sweep, want 0", n)
	}
	if s.len() != want {
		t.Errorf("pair count changed across duplicate sweeps: %d -> %d", want, s.len())
	}
}

// TestIndexOfViewAllocs pins NGraph.IndexOfView on member views at zero
// allocations: each view caches its port key, so a repeat lookup is one
// striped-map probe (BenchmarkNGraphIndexOfView/cached-key).
func TestIndexOfViewAllocs(t *testing.T) {
	s := decoders.DegreeOne()
	ng, err := Build(nil, obs.Scope{}, s.Decoder, AllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(3)...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ng.Size(); i++ {
		ng.IndexOfView(ng.ViewAt(i))
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < ng.Size(); i++ {
			if ng.IndexOfView(ng.ViewAt(i)) != i {
				t.Fatalf("view %d not found at its own index", i)
			}
		}
	}); n != 0 {
		t.Errorf("IndexOfView allocates %.1f objects per sweep of %d views, want 0", n, ng.Size())
	}
}
