package decoders

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Union returns the combined scheme of Theorem 1.1: a single anonymous,
// strong, and hiding one-round LCP for 2-coloring on H1 ∪ H2, where H1 is
// the class of graphs with minimum degree 1 and H2 the class of even
// cycles. Certificates stay constant-size.
//
// The two sub-schemes' label formats are disjoint, so the union decoder
// dispatches on the format. Mixing is safe for strong soundness: an
// accepting DegreeOne-labeled node tolerates only DegreeOne-formatted
// neighbors and an accepting EvenCycle-labeled node demands EvenCycle
// certificates from both neighbors, so every path inside the accepting
// subgraph is homogeneous and each sub-scheme's parity argument applies
// unchanged to each accepting component.
func Union() core.Scheme {
	degOne := DegreeOne()
	cycle := EvenCycle()
	return core.Scheme{
		Name:    "union-theorem-1.1",
		Decoder: &unionDecoder{degOne: degOne.Decoder.(*degOneKDecoder), cycle: cycle.Decoder},
		Prover:  &unionProver{degOne: degOne.Prover, cycle: cycle.Prover},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return degOne.Promise.InClass(g) || cycle.Promise.InClass(g)
			},
		},
		// Max of the two sub-encodings (2 and 6 bits).
		CertBits: func(string) int { return 6 },
	}
}

type unionDecoder struct {
	degOne *degOneKDecoder
	cycle  core.Decoder
}

var _ core.Decoder = (*unionDecoder)(nil)

func (d *unionDecoder) Rounds() int     { return 1 }
func (d *unionDecoder) Anonymous() bool { return true }

func (d *unionDecoder) Decide(mu *view.View) bool {
	if _, ok := d.degOne.parse(mu.Labels[view.Center]); ok {
		return d.degOne.Decide(mu)
	}
	if _, ok := parseCycleCert(mu.Labels[view.Center]); ok {
		return d.cycle.Decide(mu)
	}
	return false
}

type unionProver struct {
	degOne core.Prover
	cycle  core.Prover
}

var _ core.Prover = (*unionProver)(nil)

func (p *unionProver) Certify(inst core.Instance) ([]string, error) {
	if inst.G.N() >= 2 && inst.G.MinDegree() == 1 {
		return p.degOne.Certify(inst)
	}
	if inst.G.IsCycleGraph() && inst.G.N()%2 == 0 {
		return p.cycle.Certify(inst)
	}
	return nil, fmt.Errorf("instance outside H1 ∪ H2: %v", inst.G)
}
