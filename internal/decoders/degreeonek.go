package decoders

import (
	"errors"
	"fmt"
	"strconv"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// DegreeOneK generalizes the Lemma 4.1 scheme from 2-coloring to
// k-coloring, the direction Section 1.3 of the paper sketches ("some of
// our upper bound techniques are also useful in the general case"): on
// graphs with minimum degree one, reveal a proper k-coloring everywhere
// except at one pendant node (⊥) and its unique neighbor (⊤), and have ⊤
// verify that its colored neighbors leave a color free.
//
// The scheme is anonymous, one-round, complete, and STRONGLY sound for
// k-col: in the accepting-induced subgraph the colored core is properly
// colored, an accepting ⊤ sees at most k-1 distinct neighbor colors (so a
// color remains for it), ⊤ nodes are never adjacent, and each ⊥ is a
// pendant of its ⊤ — so the subgraph is always k-colorable. Certificates
// take ceil(log(k+2)) bits.
//
// Whether the generalization is HIDING for k >= 3 is precisely the open
// direction the paper defers; the tests explore the neighborhood-graph
// slice and record the verdict without asserting it.
func DegreeOneK(k int) core.Scheme {
	prefix := degOneKPrefix(k)
	return core.Scheme{
		Name:    fmt.Sprintf("degree-one-%d-col", k),
		Decoder: &degOneKDecoder{k: k, prefix: prefix},
		Prover:  &degOneKProver{k: k, prefix: prefix},
		Promise: core.Promise{
			Lang: core.KCol(k),
			InClass: func(g *graph.Graph) bool {
				return g.N() >= 2 && g.MinDegree() == 1 && g.IsKColorable(k)
			},
		},
		CertBits: func(string) int { return bitsFor(k + 2) },
	}
}

// degOneKPrefix is the prefix "K<k>:" shared by every DegreeOneK(k) label.
func degOneKPrefix(k int) string { return "K" + strconv.Itoa(k) + ":" }

// DegOneKLabel builds the certificate strings of DegreeOneK: pass
// color = -1 for ⊥ and color = -2 for ⊤.
func DegOneKLabel(k, color int) string {
	return degOneKLabel(degOneKPrefix(k), color)
}

// degOneKLabel spells a certificate under the given scheme prefix: the
// prefix, then B for ⊥ (color -1), T for ⊤ (color -2), or the color in
// decimal. DegreeOne uses the empty prefix.
func degOneKLabel(prefix string, color int) string {
	switch color {
	case -1:
		return prefix + "B"
	case -2:
		return prefix + "T"
	default:
		return prefix + strconv.Itoa(color)
	}
}

// DegOneKAlphabet lists every certificate symbol of DegreeOneK(k).
func DegOneKAlphabet(k int) []string {
	out := []string{DegOneKLabel(k, -1), DegOneKLabel(k, -2)}
	for c := 0; c < k; c++ {
		out = append(out, DegOneKLabel(k, c))
	}
	return out
}

type degOneKCert struct {
	kind  byte // 'B', 'T', or 'C'
	color int
}

type degOneKDecoder struct {
	k      int
	prefix string // "K<k>:" for DegreeOneK, empty for DegreeOne
}

var _ core.Decoder = (*degOneKDecoder)(nil)

func (d *degOneKDecoder) Rounds() int     { return 1 }
func (d *degOneKDecoder) Anonymous() bool { return true }

// parse decodes one certificate; ok is false for any label that
// degOneKLabel does not emit for this decoder's prefix and k.
func (d *degOneKDecoder) parse(label string) (c degOneKCert, ok bool) {
	sc := newCertScanner(label)
	sc.lit(d.prefix)
	switch sc.s {
	case "B":
		return degOneKCert{kind: 'B'}, sc.ok
	case "T":
		return degOneKCert{kind: 'T'}, sc.ok
	}
	col := sc.num()
	return degOneKCert{kind: 'C', color: col}, sc.done() && col < d.k
}

// Decide rejects as soon as any label in the view fails to parse or breaks
// a rule, so the neighbors are parsed and checked in one pass.
func (d *degOneKDecoder) Decide(mu *view.View) bool {
	center := view.Center
	own, ok := d.parse(mu.Labels[center])
	if !ok {
		return false
	}
	nbs := mu.Adj[center]
	switch own.kind {
	case 'B':
		if len(nbs) != 1 {
			return false
		}
		c, ok := d.parse(mu.Labels[nbs[0]])
		return ok && c.kind == 'T'
	case 'T':
		bottoms, distinct := 0, 0
		// Neighbor colors below 64 are tracked in a bitmask; larger ones
		// (k > 64 only) in a slice.
		var low uint64
		var high []bool
		for _, w := range nbs {
			c, ok := d.parse(mu.Labels[w])
			if !ok {
				return false
			}
			switch c.kind {
			case 'B':
				bottoms++
			case 'C':
				if c.color < 64 {
					if low&(1<<c.color) == 0 {
						low |= 1 << c.color
						distinct++
					}
					continue
				}
				if high == nil {
					high = make([]bool, d.k)
				}
				if !high[c.color] {
					high[c.color] = true
					distinct++
				}
			default:
				return false
			}
		}
		// A free color must remain for ⊤ itself.
		return bottoms == 1 && distinct <= d.k-1
	default: // colored
		tops := 0
		for _, w := range nbs {
			c, ok := d.parse(mu.Labels[w])
			if !ok {
				return false
			}
			switch c.kind {
			case 'T':
				tops++
				if tops > 1 {
					return false
				}
			case 'C':
				if c.color == own.color {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
}

type degOneKProver struct {
	k      int
	prefix string // as on degOneKDecoder
}

var _ core.Prover = (*degOneKProver)(nil)

// Certify hides the k-coloring at the smallest degree-1 node: that node
// becomes ⊥, its unique neighbor ⊤, and every other node reveals its color
// in a proper k-coloring. At k = 2 the coloring makes all of ⊤'s remaining
// neighbors share one color, as Lemma 4.1 requires.
func (p *degOneKProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	coloring, ok := g.KColoring(p.k)
	if !ok {
		return nil, fmt.Errorf("graph is not %d-colorable", p.k)
	}
	hidden := -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 1 {
			hidden = v
			break
		}
	}
	if hidden == -1 {
		return nil, errors.New("graph has no degree-1 node (outside class H1)")
	}
	top := g.Neighbors(hidden)[0]
	labels := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		switch v {
		case hidden:
			labels[v] = degOneKLabel(p.prefix, -1)
		case top:
			labels[v] = degOneKLabel(p.prefix, -2)
		default:
			labels[v] = degOneKLabel(p.prefix, coloring[v])
		}
	}
	return labels, nil
}
