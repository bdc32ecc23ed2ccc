package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// TestSweepMatchesReferenceSchemes is TestSweepMatchesReference for the
// real schemes, whose verdict tables see many hits and misses per node: the
// sequential and the sharded sweep must agree with the per-labeling
// reference, down to the first violation. The graphs are fixed draws of
// graph.ConnectedGNP; the star's center is adjacent to every node, so it is
// decided without a table. EvenCycle sweeps every other symbol of its
// alphabet: the reference takes ~9 s for all 16^5 labelings. Checking the
// 3-coloring decoder against 2-colorability gives a violation whose
// accepting set is made of table verdicts.
func TestSweepMatchesReferenceSchemes(t *testing.T) {
	gnp := func(n int, p float64, seed int64) core.Instance {
		return core.NewAnonymousInstance(graph.ConnectedGNP(n, p, rand.New(rand.NewSource(seed))))
	}
	acceptAll := core.NewDecoder(1, true, func(*view.View) bool { return true })
	degOne, degOneK, even := decoders.DegreeOne(), decoders.DegreeOneK(3), decoders.EvenCycle()
	var evenAlphabet []string
	for i, a := range decoders.EvenCycleAlphabet() {
		if i%2 == 0 {
			evenAlphabet = append(evenAlphabet, a)
		}
	}
	cases := []struct {
		name     string
		d        core.Decoder
		lang     core.Language
		inst     core.Instance
		alphabet []string
		violates bool
	}{
		{"degree-one-gnp7", degOne.Decoder, degOne.Promise.Lang, gnp(7, 0.4, 1), decoders.DegOneAlphabet(), false},
		{"degree-one-3-col-gnp6", degOneK.Decoder, degOneK.Promise.Lang, gnp(6, 0.5, 2), decoders.DegOneKAlphabet(3), false},
		{"even-cycle-gnp5", even.Decoder, even.Promise.Lang, gnp(5, 0.4, 3), evenAlphabet, false},
		{"degree-one-3-col-star6", degOneK.Decoder, degOneK.Promise.Lang, core.NewAnonymousInstance(graph.Star(6)), decoders.DegOneKAlphabet(3), false},
		{"degree-one-3-col-vs-2-col-violation-gnp6", degOneK.Decoder, core.TwoCol(), gnp(6, 0.6, 4), decoders.DegOneKAlphabet(3), true},
		{"accept-all-violation-gnp6", acceptAll, core.TwoCol(), gnp(6, 0.6, 4), decoders.DegOneAlphabet(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := core.ReferenceExhaustive(tc.d, tc.lang, tc.inst, tc.alphabet)
			if (want != nil) != tc.violates {
				t.Fatalf("reference err=%v, but the case expects violation=%v", want, tc.violates)
			}
			seq := core.ExhaustiveStrongSoundness(tc.d, tc.lang, tc.inst, tc.alphabet)
			par := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, tc.d, tc.lang, tc.inst, tc.alphabet, 8, 2)
			for _, got := range []error{seq, par} {
				if (got == nil) != (want == nil) {
					t.Fatalf("sweep err=%v, reference err=%v", got, want)
				}
				if got == nil {
					continue
				}
				var gv, wv *core.StrongSoundnessViolation
				if !errors.As(got, &gv) || !errors.As(want, &wv) {
					t.Fatalf("non-violation errors: sweep %v, reference %v", got, want)
				}
				if gv.Error() != wv.Error() {
					t.Fatalf("first violations differ:\nsweep:     %v\nreference: %v", gv, wv)
				}
			}
		})
	}
}
