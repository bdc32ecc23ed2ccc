package view_test

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// TestBuildComputesBinKeyOncePerClass runs E15's V(D,n) builds (DegreeOneK
// for k = 2, 3, 4 over every connected δ=1 k-colorable graph with n <= 4)
// and checks that the canonical ordering is computed at most once per
// interned class: nbhd.Build identifies classes by port key and needs
// BinKey only to order the accepting classes.
func TestBuildComputesBinKeyOncePerClass(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for k := 2; k <= 4; k++ {
			var insts []core.Instance
			for n := 2; n <= 4; n++ {
				graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
					if g.MinDegree() == 1 && g.IsKColorable(k) {
						gc := g.Clone()
						insts = append(insts, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
					}
					return true
				})
			}
			sc := obs.NewScope()
			before := view.BinKeysComputed()
			ng, err := nbhd.Build(nil, sc, decoders.DegreeOneK(k).Decoder, nbhd.AllLabelings(decoders.DegOneKAlphabet(k), insts...), 2*workers, workers)
			if err != nil {
				t.Fatal(err)
			}
			computed := view.BinKeysComputed() - before
			classes := sc.Gauge("nbhd.intern.classes").Value()
			views := sc.Counter("nbhd.views.extracted").Value()
			t.Logf("workers=%d k=%d: %d BinKeys for %d classes, %d accepting, %d views extracted", workers, k, computed, classes, ng.Size(), views)
			if computed > uint64(classes) {
				t.Errorf("workers=%d k=%d: %d BinKey computations for %d interned classes", workers, k, computed, classes)
			}
			if views <= classes {
				t.Errorf("workers=%d k=%d: %d views extracted for %d classes; the build no longer re-extracts known classes, so the bound is vacuous", workers, k, views, classes)
			}
		}
	}
}
