package experiments

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// The tests in this file check E11's bitmask route through Lemma 3.2
// against the repository's own slow route: each decoder mask becomes a real
// core.Decoder, strong soundness is core.CheckStrongSoundness under 2-col,
// and hiding is an odd cycle in nbhd.Build's V(D,n).

// e11Slices returns the two corpora E11 decides on: the Δ=2 port-numbered
// cycles and the Δ=3 theta slice with its hand-picked no-corpus.
func e11Slices() (yes2, no2, yes3, no3 []core.Instance) {
	for _, n := range []int{4, 6} {
		yes2 = append(yes2, portInstances(graph.MustCycle(n), 7)...)
	}
	for _, n := range []int{3, 5, 7} {
		no2 = append(no2, portInstances(graph.MustCycle(n), 7)...)
	}
	anon := func(g *graph.Graph) core.Instance {
		return core.Instance{G: g, Prt: graph.DefaultPorts(g), NBound: 12}
	}
	for _, arms := range [][]int{{2, 2, 2}, {2, 4, 2}, {4, 4, 4}} {
		yes3 = append(yes3, anon(graph.MustWatermelon(arms)))
	}
	no3 = []core.Instance{
		anon(graph.MustCycle(3)),
		anon(graph.MustCycle(5)),
		anon(graph.MustCycle(7)),
		anon(graph.MustWatermelon([]int{2, 3})),
		anon(graph.MustWatermelon([]int{3, 4, 5})),
		anon(graph.Complete(4)),
		anon(graph.Petersen()),
	}
	return yes2, no2, yes3, no3
}

// oracleBits assigns every view class of the corpus its decoder-mask bit
// the way E11 documents it: the rank of the class's BinKey among the
// corpus's sorted class keys. It is computed here from scratch, so it
// checks E11's class keying too.
func oracleBits(t *testing.T, corpus []core.Instance) map[string]int {
	t.Helper()
	set := map[string]bool{}
	for _, inst := range corpus {
		views, err := core.MustNewLabeled(inst, make([]string, inst.G.N())).Views(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mu := range views {
			set[string(mu.Anonymize().BinKey())] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bits := make(map[string]int, len(keys))
	for i, k := range keys {
		bits[k] = i
	}
	return bits
}

// maskDecoder is the 0-bit one-round anonymous decoder that accepts a view
// iff the mask bit of its class is set.
func maskDecoder(bits map[string]int, mask uint64) core.Decoder {
	return core.NewDecoder(1, true, func(mu *view.View) bool {
		b, ok := bits[string(mu.Anonymize().BinKey())]
		return ok && mask>>uint(b)&1 == 1
	})
}

// oracleSound reports whether d is strongly sound for 2-col on every
// no-instance, labeled with the single empty certificate.
func oracleSound(t *testing.T, d core.Decoder, no []core.Instance) bool {
	t.Helper()
	for _, inst := range no {
		if err := core.CheckStrongSoundness(d, core.TwoCol(), core.MustNewLabeled(inst, make([]string, inst.G.N()))); err != nil {
			if _, ok := err.(*core.StrongSoundnessViolation); !ok {
				t.Fatal(err)
			}
			return false
		}
	}
	return true
}

// oracleHiding reports whether V(D,n) built over the yes-instances has an
// odd cycle (Lemma 3.2).
func oracleHiding(t *testing.T, d core.Decoder, yes []core.Instance) bool {
	t.Helper()
	ls := make([]core.Labeled, len(yes))
	for i, inst := range yes {
		ls[i] = core.MustNewLabeled(inst, make([]string, inst.G.N()))
	}
	ng, err := nbhd.Build(nil, obs.Scope{}, d, nbhd.FromLabeled(ls...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ng.OddCycle() != nil
}

// checkSlice compares E11's mask verdicts with the oracles on every mask of
// masks and returns how many masks each oracle found sound and hiding.
func checkSlice(t *testing.T, yes, no []core.Instance, masks []uint64) (sound, hiding int) {
	t.Helper()
	s, err := newDecoderSpace(yes, no)
	if err != nil {
		t.Fatal(err)
	}
	bits := oracleBits(t, append(append([]core.Instance{}, yes...), no...))
	if len(bits) != s.classes {
		t.Fatalf("decoder space has %d classes, the BinKey oracle %d", s.classes, len(bits))
	}
	odd, err := oddCycleMasks(nil, s.no)
	if err != nil {
		t.Fatal(err)
	}
	bad := minimalMasks(odd)
	for _, mask := range masks {
		d := maskDecoder(bits, mask)
		wantSound := oracleSound(t, d, no)
		if got := !violates(mask, bad); got != wantSound {
			t.Errorf("mask %#x: bitmask route says strongly sound = %v, core.CheckStrongSoundness %v", mask, got, wantSound)
		}
		wantHiding := oracleHiding(t, d, yes)
		if got := s.hiding(mask); got != wantHiding {
			t.Errorf("mask %#x: bitmask route says hiding = %v, nbhd odd cycle %v", mask, got, wantHiding)
		}
		if wantSound {
			sound++
		}
		if wantHiding {
			hiding++
		}
	}
	return sound, hiding
}

// TestE11MasksMatchCoreAndNbhd checks the Δ=2 slice on all of its masks and
// the Δ=3 theta slice on seeded random masks. Both verdicts must come out
// mixed, or the comparison shows nothing.
func TestE11MasksMatchCoreAndNbhd(t *testing.T) {
	yes2, no2, yes3, no3 := e11Slices()

	var all []uint64
	for mask := uint64(0); mask < 1<<4; mask++ {
		all = append(all, mask)
	}
	sound, hiding := checkSlice(t, yes2, no2, all)
	t.Logf("Δ=2: %d masks, %d sound, %d hiding", len(all), sound, hiding)
	if sound == 0 || sound == len(all) || hiding == 0 || hiding == len(all) {
		t.Errorf("Δ=2 verdicts not mixed: %d sound, %d hiding of %d", sound, hiding, len(all))
	}

	rng := rand.New(rand.NewSource(7))
	const samples = 300
	sampled := make([]uint64, samples)
	for i := range sampled {
		sampled[i] = rng.Uint64() & (1<<39 - 1)
	}
	sound, hiding = checkSlice(t, yes3, no3, sampled)
	t.Logf("Δ=3: %d masks, %d sound, %d hiding", samples, sound, hiding)
	if sound < samples/10 || sound > samples*9/10 || hiding < samples/10 || hiding > samples*9/10 {
		t.Errorf("Δ=3 verdicts not mixed: %d sound, %d hiding of %d", sound, hiding, samples)
	}

	// Hiding depends only on which yes-instance classes a mask accepts,
	// and the theta slice has few of them: check every subset, so that any
	// change to the class adjacency that changes a verdict is caught.
	corpus := append(append([]core.Instance{}, yes3...), no3...)
	yesBits := oracleBits(t, yes3)
	all3 := oracleBits(t, corpus)
	var yesClasses []int
	for k := range yesBits {
		yesClasses = append(yesClasses, all3[k])
	}
	subsets := make([]uint64, 0, 1<<len(yesClasses))
	for sub := 0; sub < 1<<len(yesClasses); sub++ {
		var mask uint64
		for i, c := range yesClasses {
			if sub>>i&1 == 1 {
				mask |= 1 << uint(c)
			}
		}
		subsets = append(subsets, mask)
	}
	sound, hiding = checkSlice(t, yes3, no3, subsets)
	t.Logf("Δ=3: %d yes classes, %d subsets, %d sound, %d hiding", len(yesClasses), len(subsets), sound, hiding)
}

// bruteMinimal keeps the distinct masks of ms that contain no other mask of
// ms, sorted.
func bruteMinimal(ms []uint64) []uint64 {
	var out []uint64
	for _, a := range ms {
		minimal := !slices.Contains(out, a)
		for _, b := range ms {
			if b != a && b&a == b {
				minimal = false
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// TestMinimalMasksMatchesBruteForce checks minimalMasks on the odd-cycle
// masks of the Δ=3 no-corpus and on random lists with duplicates and
// nested masks.
func TestMinimalMasksMatchesBruteForce(t *testing.T) {
	_, _, yes3, no3 := e11Slices()
	s, err := newDecoderSpace(yes3, no3)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := oddCycleMasks(nil, s.no)
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]uint64{odd}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		ms := make([]uint64, rng.Intn(12))
		for j := range ms {
			ms[j] = rng.Uint64() & rng.Uint64() & 0xff
		}
		lists = append(lists, ms)
	}
	for _, ms := range lists {
		got := slices.Clone(minimalMasks(ms))
		slices.Sort(got)
		if want := bruteMinimal(ms); !slices.Equal(got, want) {
			t.Errorf("minimalMasks(%#x) = %#x, want %#x", ms, got, want)
		}
	}
	if got := len(minimalMasks(odd)); got == 0 || got == len(odd) {
		t.Errorf("odd-cycle masks: %d of %d minimal; the corpus does not exercise the filter", got, len(odd))
	}
}

// TestOddCycleMasksMatchCorePerInstance compares the strong-soundness
// verdict instance by instance on the non-bipartite connected Δ<=3 graphs
// with at most 5 nodes, the small end of E11's exhaustive no-corpus.
func TestOddCycleMasksMatchCorePerInstance(t *testing.T) {
	var no []core.Instance
	for n := 3; n <= 5; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MaxDegree() <= 3 && !g.IsBipartite() {
				g = g.Clone()
				no = append(no, core.Instance{G: g, Prt: graph.DefaultPorts(g), NBound: 12})
			}
			return true
		})
	}
	s, err := newDecoderSpace(nil, no)
	if err != nil {
		t.Fatal(err)
	}
	bits := oracleBits(t, no)
	rng := rand.New(rand.NewSource(5))
	checked, sound := 0, 0
	for i, inst := range no {
		odd, err := oddCycleMasks(nil, s.no[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		bad := minimalMasks(odd)
		for i := 0; i < 4; i++ {
			// Dense masks: three of four classes accepted, so cycles often are.
			mask := (rng.Uint64() | rng.Uint64()) & (1<<len(bits) - 1)
			want := oracleSound(t, maskDecoder(bits, mask), []core.Instance{inst})
			if got := !violates(mask, bad); got != want {
				t.Errorf("%v, mask %#x: bitmask route says strongly sound = %v, core.CheckStrongSoundness %v", inst.G, mask, got, want)
			}
			checked++
			if want {
				sound++
			}
		}
	}
	t.Logf("%d instances, %d checks, %d sound", len(no), checked, sound)
	if sound < checked/10 || sound > checked*9/10 {
		t.Errorf("verdicts not mixed: %d of %d sound", sound, checked)
	}
}
