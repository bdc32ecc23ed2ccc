package experiments

import (
	"context"
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
)

// E8Extraction reproduces Lemma 3.2 in both directions. Forward: for the
// revealing baseline Trivial(2), V(D, n) over an exhaustive slice is
// 2-colorable and the extraction decoder D' recovers a proper 2-coloring of
// fresh accepted instances. Backward: for each hiding scheme, V(D, n)
// contains an odd cycle and building D' fails.
func E8Extraction(ctx context.Context) Table {
	t := Table{
		ID:      "E8",
		Title:   "extraction decoder D' (Lemma 3.2)",
		Columns: []string{"scheme", "V(D,n) slice", "2-colorable", "extraction"},
	}

	// Forward direction: Trivial(2).
	triv := decoders.Trivial(2)
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.IsBipartite() {
				gc := g.Clone()
				graph.EnumPorts(gc, func(pt *graph.Ports) bool {
					insts = append(insts, core.Instance{G: gc, Prt: pt, NBound: 4})
					return true
				})
			}
			return true
		})
	}
	ngTriv, err := nbhd.Build(ctx, scope().Named("E8"), triv.Decoder, nbhd.AllLabelings([]string{"0", "1"}, insts...), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	ex, err := nbhd.NewExtractor(ngTriv, 2, true)
	if err != nil {
		t.Err = fmt.Errorf("extractor for the revealing scheme: %w", err)
		return t
	}
	// Extract on every bipartite connected 4-node instance afresh.
	extracted, proper := 0, 0
	graph.EnumConnectedGraphs(4, func(g *graph.Graph) bool {
		if !g.IsBipartite() {
			return true
		}
		inst := core.Instance{G: g.Clone(), Prt: graph.DefaultPorts(g), NBound: 4}
		labels, err := triv.Prover.Certify(inst)
		if err != nil {
			t.Err = err
			return false
		}
		witness, err := ex.ExtractWitness(core.MustNewLabeled(inst, labels), 1)
		if err != nil {
			t.Err = err
			return false
		}
		extracted++
		if inst.G.IsProperColoring(witness) {
			proper++
		}
		return true
	})
	if t.Err != nil {
		return t
	}
	t.AddRow("Trivial(2)", fmt.Sprintf("%d views", ngTriv.Size()), true,
		fmt.Sprintf("%d/%d fresh instances properly colored", proper, extracted))

	// Backward direction: the hiding schemes.
	degOne := decoders.DegreeOne()
	ngDeg, err := nbhd.Build(ctx, scope().Named("E8"), degOne.Decoder, nbhd.AllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	_, errDeg := nbhd.NewExtractor(ngDeg, 2, true)
	t.AddRow("DegreeOne", fmt.Sprintf("%d views", ngDeg.Size()), ngDeg.IsKColorable(2),
		fmt.Sprintf("extractor construction fails: %v", errDeg != nil))

	evenFam, err := decoders.EvenCycleFamily(4, 6)
	if err != nil {
		t.Err = err
		return t
	}
	even := decoders.EvenCycle()
	ngEven, err := nbhd.Build(ctx, scope().Named("E8"), even.Decoder, nbhd.FromLabeled(evenFam...), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	_, errEven := nbhd.NewExtractor(ngEven, 2, true)
	t.AddRow("EvenCycle", fmt.Sprintf("%d views", ngEven.Size()), ngEven.IsKColorable(2),
		fmt.Sprintf("extractor construction fails: %v", errEven != nil))

	l1, l2 := decoders.ShatterHidingPair()
	shatter := decoders.Shatter()
	ngSh, err := nbhd.Build(ctx, scope().Named("E8"), shatter.Decoder, nbhd.FromLabeled(l1, l2), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	_, errSh := nbhd.NewExtractor(ngSh, 2, false)
	t.AddRow("Shatter", fmt.Sprintf("%d views", ngSh.Size()), ngSh.IsKColorable(2),
		fmt.Sprintf("extractor construction fails: %v", errSh != nil))

	w1, w2, err := decoders.WatermelonHidingPair()
	if err != nil {
		t.Err = err
		return t
	}
	melon := decoders.Watermelon()
	ngW, err := nbhd.Build(ctx, scope().Named("E8"), melon.Decoder, nbhd.FromLabeled(w1, w2), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	_, errW := nbhd.NewExtractor(ngW, 2, false)
	t.AddRow("Watermelon", fmt.Sprintf("%d views", ngW.Size()), ngW.IsKColorable(2),
		fmt.Sprintf("extractor construction fails: %v", errW != nil))

	t.Notes = "Paper (Lemma 3.2): D is hiding iff V(D,n) is not k-colorable; the proof builds " +
		"D' from a canonical coloring of V(D,n). Measured: D' exists and extracts proper " +
		"2-colorings for the revealing baseline; for all four hiding schemes the slice is " +
		"non-2-colorable and the construction fails, exactly as characterized."
	return t
}
