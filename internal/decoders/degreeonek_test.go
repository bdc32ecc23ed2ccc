package decoders

import (
	"math/rand"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

func TestDegreeOneKCompleteness(t *testing.T) {
	s := DegreeOneK(3)
	// 3-colorable graphs with a pendant node.
	pend := func(g *graph.Graph) *graph.Graph {
		h, err := graph.AttachPendant(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, g := range []*graph.Graph{
		graph.Path(5),
		pend(graph.MustCycle(5)), // odd cycle + pendant: 3-chromatic
		pend(graph.Petersen()),   // 3-chromatic
		pend(graph.MustCycle(7)),
		graph.Spider([]int{2, 3}),
	} {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestDegreeOneKProverRejects(t *testing.T) {
	s := DegreeOneK(3)
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.Complete(4))); err == nil {
		t.Error("prover 3-certified K4")
	}
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.MustCycle(5))); err == nil {
		t.Error("prover certified a graph without pendants")
	}
}

func TestDegreeOneKStrongSoundnessExhaustive(t *testing.T) {
	// 5^n labelings on every connected graph up to 4 nodes for k = 3.
	s := DegreeOneK(3)
	alphabet := DegOneKAlphabet(3)
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			inst := core.NewAnonymousInstance(g.Clone())
			if err := core.ExhaustiveStrongSoundness(s.Decoder, s.Promise.Lang, inst, alphabet); err != nil {
				t.Errorf("strong soundness: %v", err)
				return false
			}
			return true
		})
	}
}

func TestDegreeOneKStrongSoundnessFuzz(t *testing.T) {
	s := DegreeOneK(3)
	alphabet := DegOneKAlphabet(3)
	rng := rand.New(rand.NewSource(37))
	gen := func(_ int, rng *rand.Rand) string { return alphabet[rng.Intn(len(alphabet))] }
	for _, g := range []*graph.Graph{
		graph.Complete(5), // needs 5 colors
		graph.MustWatermelon([]int{2, 3}),
		graph.Petersen(),
	} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundness(obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 700, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

func TestDegreeOneKTopFreeColor(t *testing.T) {
	// A ⊤ whose neighbors exhaust all k colors must reject (no free color
	// remains), the k-ary analogue of the common-β rule.
	s := DegreeOneK(3)
	g := graph.Star(5) // center 0 with 4 leaves
	inst := core.NewAnonymousInstance(g)
	full := []string{
		DegOneKLabel(3, -2), DegOneKLabel(3, -1),
		DegOneKLabel(3, 0), DegOneKLabel(3, 1), DegOneKLabel(3, 2),
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, full))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] {
		t.Error("⊤ accepted neighbors exhausting all 3 colors")
	}
	ok := []string{
		DegOneKLabel(3, -2), DegOneKLabel(3, -1),
		DegOneKLabel(3, 0), DegOneKLabel(3, 1), DegOneKLabel(3, 0),
	}
	outs, err = core.Run(s.Decoder, core.MustNewLabeled(inst, ok))
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0] {
		t.Error("⊤ rejected neighbors leaving a free color")
	}
}

// TestDegreeOneKHidingExploration records (without asserting) whether the
// k = 3 generalization exhibits a hiding witness on the small exhaustive
// slice: a non-3-colorable accepting neighborhood graph. This is the open
// direction the paper defers to future work.
func TestDegreeOneKHidingExploration(t *testing.T) {
	s := DegreeOneK(3)
	// Default ports only: exhausting port assignments as in E3 multiplies
	// the slice ~25x for no extra insight here.
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MinDegree() == 1 && g.IsKColorable(3) {
				gc := g.Clone()
				insts = append(insts, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
			}
			return true
		})
	}
	ng, err := nbhd.Build(nil, obs.Scope{}, s.Decoder, nbhd.AllLabelings(DegOneKAlphabet(3), insts...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	threeColorable := ng.IsKColorable(3)
	t.Logf("DegreeOneK(3) slice: %d views, %d edges, 3-colorable: %v (non-3-colorable would witness hiding a 3-coloring)",
		ng.Size(), ng.EdgeCount(), threeColorable)
	if ng.Size() == 0 {
		t.Fatal("empty slice")
	}
	// The slice must at least be non-2-colorable: the k = 2 hiding
	// behaviour embeds (an odd cycle of views exists).
	if ng.IsKColorable(2) {
		t.Error("DegreeOneK(3) slice is 2-colorable; expected at least the embedded 2-hiding witness")
	}
	// Empirical finding recorded in EXPERIMENTS.md: the slice IS
	// 3-colorable at this size, i.e. the naive k-generalization does not
	// (yet) witness hiding a 3-coloring — matching the paper's decision to
	// defer the general-k hiding question.
}

func TestDegreeOneKCertBits(t *testing.T) {
	s := DegreeOneK(3)
	// Alphabet of 5 symbols -> 3 bits.
	if got := s.LabelBits(DegOneKLabel(3, 1)); got != 3 {
		t.Errorf("bits = %d, want 3", got)
	}
	if got := DegreeOneK(2).LabelBits(DegOneKLabel(2, 0)); got != 2 {
		t.Errorf("k=2 bits = %d, want 2", got)
	}
}

func TestParseDegOneKCertErrors(t *testing.T) {
	d := DegreeOneK(3).Decoder.(*degOneKDecoder)
	bad := []string{"", "K3", "K3:", "K3:9", "K3:x", "K2:1", "junk", "K3:01", "K3:+1", "K3:1 ", "K3:B0"}
	for _, l := range bad {
		if _, ok := d.parse(l); ok {
			t.Errorf("parse(%q) succeeded for k = 3", l)
		}
	}
	if c, ok := d.parse("K3:2"); !ok || c.kind != 'C' || c.color != 2 {
		t.Errorf("K3:2 parsed as %+v, %v", c, ok)
	}
	// DegreeOne is the bare k = 2 spelling: exactly 0, 1, B and T.
	bare := DegreeOne().Decoder.(*degOneKDecoder)
	for _, l := range []string{"", "2", "01", "+1", "00", "1 ", "K2:0", "BT", "b"} {
		if _, ok := bare.parse(l); ok {
			t.Errorf("parse(%q) succeeded for DegreeOne", l)
		}
	}
	for _, l := range DegOneAlphabet() {
		if _, ok := bare.parse(l); !ok {
			t.Errorf("parse(%q) failed for DegreeOne", l)
		}
	}
}

// degOneKOracle is the DegreeOneK rule set written the plain way: a label
// parses iff degOneKLabel emits it for the prefix and some color in
// [-2, k), and the ⊥/⊤/colored rules run over a map of neighbor colors.
func degOneKOracle(k int, prefix string) func(mu *view.View) bool {
	certs := map[string]degOneKCert{
		degOneKLabel(prefix, -1): {kind: 'B'},
		degOneKLabel(prefix, -2): {kind: 'T'},
	}
	for c := 0; c < k; c++ {
		certs[degOneKLabel(prefix, c)] = degOneKCert{kind: 'C', color: c}
	}
	return func(mu *view.View) bool {
		own, ok := certs[mu.Labels[view.Center]]
		if !ok {
			return false
		}
		var nbs []degOneKCert
		for _, w := range mu.Adj[view.Center] {
			c, ok := certs[mu.Labels[w]]
			if !ok {
				return false
			}
			nbs = append(nbs, c)
		}
		kinds := map[byte]int{}
		colors := map[int]bool{}
		for _, c := range nbs {
			kinds[c.kind]++
			if c.kind == 'C' {
				colors[c.color] = true
			}
		}
		switch own.kind {
		case 'B':
			return len(nbs) == 1 && kinds['T'] == 1
		case 'T':
			return kinds['T'] == 0 && kinds['B'] == 1 && len(colors) <= k-1
		default:
			return kinds['B'] == 0 && kinds['T'] <= 1 && !colors[own.color]
		}
	}
}

// TestDegreeOneKDecideMatchesOracle compares Decide with degOneKOracle at
// every node of every labeling of small stars and paths, over alphabets
// that mix certificates with malformed labels and non-canonical spellings.
// The bare case is DegreeOne, the k = 2 scheme without a prefix. k = 66
// drives the colors past the 64-bit mask into the slice fallback.
func TestDegreeOneKDecideMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		scheme core.Scheme
		k      int
		prefix string
		colors []int
		extra  []string
	}{
		{DegreeOne(), 2, "", []int{0, 1}, []string{"2", "x", "01", "+1", "K2:0"}},
		{DegreeOneK(2), 2, "K2:", []int{0, 1}, []string{"K2:2", "K1:0", "0"}},
		{DegreeOneK(3), 3, "K3:", []int{0, 1, 2}, []string{"K3:3", "K1:0", "K3:01", "K3:+1"}},
		{DegreeOneK(66), 66, "K66:", []int{0, 63, 64, 65}, []string{"K66:66", "K1:0"}},
	} {
		d, oracle := tc.scheme.Decoder, degOneKOracle(tc.k, tc.prefix)
		alphabet := append([]string{degOneKLabel(tc.prefix, -1), degOneKLabel(tc.prefix, -2)}, tc.extra...)
		for _, c := range tc.colors {
			alphabet = append(alphabet, degOneKLabel(tc.prefix, c))
		}
		for _, g := range []*graph.Graph{graph.Star(5), graph.Path(4)} {
			inst := core.NewAnonymousInstance(g)
			graph.EnumLabelings(g.N(), len(alphabet), func(idx []int) bool {
				labels := make([]string, g.N())
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				for v := 0; v < g.N(); v++ {
					mu := view.MustExtract(g, inst.Prt, nil, labels, inst.NBound, v, 1)
					if got, want := d.Decide(mu), oracle(mu); got != want {
						t.Fatalf("%s node %d of %v under %q: Decide=%v, oracle=%v", tc.scheme.Name, v, g, labels, got, want)
					}
				}
				return true
			})
		}
	}
}

// TestDegreeOneKTopFreeColorWide is TestDegreeOneKTopFreeColor for k = 66,
// where a ⊤ can see colors on both sides of the 64-bit mask: it accepts
// 65 distinct neighbor colors (one repeated), and rejects all 66.
func TestDegreeOneKTopFreeColorWide(t *testing.T) {
	const k = 66
	d, oracle := DegreeOneK(k).Decoder, degOneKOracle(k, degOneKPrefix(k))
	for _, tc := range []struct {
		colors []int
		want   bool
	}{
		{append(seq(65), 64), true},
		{append(seq(65), 3), true},
		{seq(66), false},
	} {
		g := graph.Star(len(tc.colors) + 2)
		labels := []string{DegOneKLabel(k, -2), DegOneKLabel(k, -1)}
		for _, c := range tc.colors {
			labels = append(labels, DegOneKLabel(k, c))
		}
		mu := view.MustExtract(g, graph.DefaultPorts(g), nil, labels, g.N(), 0, 1)
		if got, want := d.Decide(mu), oracle(mu); got != tc.want || got != want {
			t.Errorf("⊤ with neighbor colors %v: Decide=%v, oracle=%v, want %v", tc.colors, got, want, tc.want)
		}
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
