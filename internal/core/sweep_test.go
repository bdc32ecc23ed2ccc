package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// acceptAllDecoder makes violations easy to manufacture: every node accepts,
// so the accepting set is the whole instance.
func acceptAllDecoder() Decoder {
	return NewDecoder(1, true, func(mu *view.View) bool { return true })
}

// referenceExhaustive is the pre-sweep formulation: one fresh Labeled and a
// full CheckStrongSoundness per labeling.
func referenceExhaustive(d Decoder, lang Language, inst Instance, alphabet []string) error {
	n := inst.G.N()
	var firstErr error
	graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
		labels := make([]string, n)
		for v, a := range idx {
			labels[v] = alphabet[a]
		}
		l, err := NewLabeled(inst, labels)
		if err != nil {
			firstErr = err
			return false
		}
		if err := CheckStrongSoundness(d, lang, l); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	return firstErr
}

// TestSweepMatchesReference compares the template/memo sweep against the
// per-labeling reference on instances with and without violations,
// including the identity of the first violation.
func TestSweepMatchesReference(t *testing.T) {
	alphabet := []string{"0", "1", "x"}
	cases := []struct {
		name string
		d    Decoder
		lang Language
		inst Instance
	}{
		{"reveal-no-violation-C4", revealDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(4))},
		{"reveal-no-violation-C5", revealDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(5))},
		{"accept-all-violation-C3", acceptAllDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(3))},
		{"accept-all-violation-K4", acceptAllDecoder(), TwoCol(), NewAnonymousInstance(graph.Complete(4))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ExhaustiveStrongSoundness(tc.d, tc.lang, tc.inst, alphabet)
			want := referenceExhaustive(tc.d, tc.lang, tc.inst, alphabet)
			if (got == nil) != (want == nil) {
				t.Fatalf("sweep err=%v, reference err=%v", got, want)
			}
			if got == nil {
				return
			}
			var gv, wv *StrongSoundnessViolation
			if !errors.As(got, &gv) || !errors.As(want, &wv) {
				t.Fatalf("non-violation errors: sweep %v, reference %v", got, want)
			}
			if gv.Error() != wv.Error() {
				t.Fatalf("first violations differ:\nsweep:     %v\nreference: %v", gv, wv)
			}
		})
	}
}

// TestSweepFuzzMatchesReference drives the fuzz path and the reference with
// identical random streams and compares trial-for-trial outcomes.
func TestSweepFuzzMatchesReference(t *testing.T) {
	gen := func(node int, rng *rand.Rand) string {
		return []string{"0", "1", "x"}[rng.Intn(3)]
	}
	for _, tc := range []struct {
		name string
		d    Decoder
		inst Instance
	}{
		{"reveal-C5", revealDecoder(), NewAnonymousInstance(graph.MustCycle(5))},
		{"accept-all-C3", acceptAllDecoder(), NewAnonymousInstance(graph.MustCycle(3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := FuzzStrongSoundness(tc.d, TwoCol(), tc.inst, 60, rand.New(rand.NewSource(7)), gen)

			// Reference replay with an identically seeded stream.
			rng := rand.New(rand.NewSource(7))
			n := tc.inst.G.N()
			var want error
			for trial := 0; trial < 60 && want == nil; trial++ {
				labels := make([]string, n)
				for v := range labels {
					labels[v] = gen(v, rng)
				}
				l := MustNewLabeled(tc.inst, labels)
				if err := CheckStrongSoundness(tc.d, TwoCol(), l); err != nil {
					want = err
				}
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("fuzz sweep err=%v, reference err=%v", got, want)
			}
			if got != nil {
				var gv, wv *StrongSoundnessViolation
				if !errors.As(got, &gv) || !errors.As(want, &wv) {
					t.Fatalf("non-violation errors: %v vs %v", got, want)
				}
				if gv.Error() != wv.Error() {
					t.Fatalf("violations differ:\nsweep:     %v\nreference: %v", gv, wv)
				}
			}
		})
	}
}

// TestSweepTableCounts pins the verdict-table bookkeeping on violation-free
// one-worker sweeps: every verdict is either a table hit or a decoder call,
// and a tabled node calls the decoder exactly once per neighborhood
// labeling, while an untabled node (hosts = the whole instance) calls it
// once per labeling.
func TestSweepTableCounts(t *testing.T) {
	alphabet := []string{"0", "1", "x"}
	a := int64(len(alphabet))
	pow := func(e int) int64 {
		p := int64(1)
		for i := 0; i < e; i++ {
			p *= a
		}
		return p
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		untabled int
	}{
		{"gnp7", graph.ConnectedGNP(7, 0.4, rand.New(rand.NewSource(1))), 0},
		{"star6", graph.Star(6), 1},
		{"path3", graph.Path(3), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := NewAnonymousInstance(tc.g)
			n := tc.g.N()
			s, err := newLabelSweep(revealDecoder(), TwoCol(), inst, alphabet)
			if err != nil {
				t.Fatal(err)
			}
			var wantInner int64
			untabled := 0
			for v := 0; v < n; v++ {
				h := tc.g.Degree(v) + 1 // radius-1 view
				if tabled := s.pows[v] != nil; tabled != (h < n) {
					t.Fatalf("node %d with %d of %d hosts: tabled = %v", v, h, n, tabled)
				}
				if h < n {
					wantInner += pow(h)
				} else {
					untabled++
					wantInner += pow(n)
				}
			}
			if untabled != tc.untabled {
				t.Fatalf("%d untabled nodes, want %d", untabled, tc.untabled)
			}

			sc := obs.NewScope()
			if err := ExhaustiveStrongSoundnessParallelCtx(nil, sc, revealDecoder(), TwoCol(), inst, alphabet, 8, 1); err != nil {
				t.Fatal(err)
			}
			calls := sc.Counter("core.sweep.decide.calls").Value()
			hits := sc.Counter("core.sweep.decide.memo_hits").Value()
			inner := sc.Counter("core.sweep.decide.inner").Value()
			if want := int64(n) * pow(n); calls != want {
				t.Errorf("decide.calls = %d, want n·|Σ|^n = %d", calls, want)
			}
			if calls != hits+inner {
				t.Errorf("decide.calls (%d) != memo_hits (%d) + inner (%d)", calls, hits, inner)
			}
			if inner != wantInner {
				t.Errorf("decide.inner = %d, want Σ_tabled |Σ|^h + untabled·|Σ|^n = %d", inner, wantInner)
			}
		})
	}
}

// TestLabelSweepTableCeiling checks table sizing without running a sweep:
// the center of a 12-leaf star (13 hosts, one short of the instance) gets
// a table at exactly maxTableEntries = 4^13 entries and none at 5^13, and
// no table is allocated before the first lookup.
func TestLabelSweepTableCeiling(t *testing.T) {
	g, err := graph.AttachPendant(graph.Star(13), 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewAnonymousInstance(g)
	for _, tc := range []struct {
		symbols int
		tabled  bool
	}{
		{4, true},
		{5, false},
	} {
		alphabet := make([]string, tc.symbols)
		for i := range alphabet {
			alphabet[i] = fmt.Sprint(i)
		}
		s, err := newLabelSweep(revealDecoder(), TwoCol(), inst, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.pows[0] != nil; got != tc.tabled {
			t.Errorf("|Σ| = %d: center tabled = %v, want %v", tc.symbols, got, tc.tabled)
		}
		if tc.tabled && s.tabWords[0] != maxTableEntries*2/64 {
			t.Errorf("|Σ| = %d: center table has %d words, want %d", tc.symbols, s.tabWords[0], maxTableEntries*2/64)
		}
		for v := 1; v < g.N(); v++ {
			if s.pows[v] == nil {
				t.Errorf("|Σ| = %d: node %d (%d hosts) has no table", tc.symbols, v, g.Degree(v)+1)
			}
		}
		for v, tab := range s.tab {
			if tab != nil {
				t.Errorf("|Σ| = %d: node %d's table allocated before any lookup", tc.symbols, v)
			}
		}
	}
}
