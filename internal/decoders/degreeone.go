package decoders

import (
	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// Certificate symbols of the DegreeOne scheme (Lemma 4.1). The prover
// reveals a 2-coloring everywhere except at one degree-1 node of its
// choosing (labeled Bottom) and that node's unique neighbor (labeled Top).
const (
	DegOneColor0 = "0" // color 0 of the revealed part
	DegOneColor1 = "1" // color 1 of the revealed part
	DegOneBottom = "B" // ⊥: the hidden degree-1 node
	DegOneTop    = "T" // ⊤: the hidden node's unique neighbor
)

// DegOneAlphabet is the full certificate alphabet, handy for exhaustive
// adversarial labeling enumeration in soundness checks.
func DegOneAlphabet() []string {
	return []string{DegOneColor0, DegOneColor1, DegOneBottom, DegOneTop}
}

// DegreeOne returns the anonymous, strong, and hiding one-round LCP of
// Lemma 4.1 for 2-coloring on the class H1 of graphs with minimum degree 1.
// Certificates are constant-size (2 bits).
//
// Lemma 4.1's decoder is DegreeOneK's at k = 2, spelled without the "K2:"
// prefix, so both schemes share one decoder and one prover:
//
//  1. A ⊥ node accepts iff it has degree 1 and its unique neighbor is ⊤.
//  2. A ⊤ node accepts iff exactly one neighbor is ⊥ and all remaining
//     neighbors carry one common color β ∈ {0, 1}.
//  3. A colored node accepts iff at most one neighbor is ⊤ and every other
//     neighbor carries the opposite color.
func DegreeOne() core.Scheme {
	return core.Scheme{
		Name:    "degree-one",
		Decoder: &degOneKDecoder{k: 2},
		Prover:  &degOneKProver{k: 2},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return g.IsBipartite() && g.N() >= 2 && g.MinDegree() == 1
			},
		},
		CertBits: func(string) int { return 2 },
	}
}
