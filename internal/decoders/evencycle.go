package decoders

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// EvenCycle returns the anonymous, strong, and hiding one-round LCP of
// Lemma 4.2 for 2-coloring on the class H2 of even cycles. Instead of a
// node coloring, the certificate reveals a proper 2-EDGE-coloring, which on
// a cycle certifies 2-colorability while hiding the node coloring at every
// node. Certificates are constant-size (6 bits).
//
// The certificate of a degree-2 node u is EvenCycleLabel(q1, c1, q2, c2):
// for each own port j ∈ {1, 2}, the far endpoint's port number qj of the
// edge behind port j together with that edge's color cj.
func EvenCycle() core.Scheme {
	return core.Scheme{
		Name:    "even-cycle",
		Decoder: &evenCycleDecoder{},
		Prover:  &evenCycleProver{},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return g.IsCycleGraph() && g.N()%2 == 0
			},
		},
		CertBits: func(string) int { return 6 },
	}
}

// EvenCycleLabel encodes a certificate of the EvenCycle scheme. qj is the
// far-end port of the edge behind own port j; cj is its color.
func EvenCycleLabel(q1, c1, q2, c2 int) string {
	return fmt.Sprintf("C:%d,%d;%d,%d", q1, c1, q2, c2)
}

// EvenCycleAlphabet returns every well-formed EvenCycle certificate plus one
// malformed symbol, for adversarial labeling enumeration.
func EvenCycleAlphabet() []string {
	var out []string
	for _, q1 := range []int{1, 2} {
		for _, c1 := range []int{0, 1} {
			for _, q2 := range []int{1, 2} {
				for _, c2 := range []int{0, 1} {
					out = append(out, EvenCycleLabel(q1, c1, q2, c2))
				}
			}
		}
	}
	return append(out, "garbage")
}

type cycleCert struct {
	farPort [3]int // farPort[j] for own port j in {1,2}
	color   [3]int // color[j] for own port j in {1,2}
}

// parseCycleCert decodes an EvenCycle certificate; ok is false for any
// label EvenCycleLabel does not emit with ports in {1, 2} and colors in
// {0, 1}.
func parseCycleCert(label string) (c cycleCert, ok bool) {
	sc := newCertScanner(label)
	sc.lit("C:")
	c.farPort[1] = sc.num()
	sc.lit(",")
	c.color[1] = sc.num()
	sc.lit(";")
	c.farPort[2] = sc.num()
	sc.lit(",")
	c.color[2] = sc.num()
	ok = sc.done()
	for j := 1; j <= 2; j++ {
		ok = ok && (c.farPort[j] == 1 || c.farPort[j] == 2) && c.color[j] <= 1
	}
	return c, ok
}

type evenCycleDecoder struct{}

var _ core.Decoder = (*evenCycleDecoder)(nil)

func (d *evenCycleDecoder) Rounds() int     { return 1 }
func (d *evenCycleDecoder) Anonymous() bool { return true }

// Decide implements Lemma 4.2's decoder: the node must have degree 2, its
// certificate must be well-formed with two differently colored incident
// edges, the claimed far-end ports must match the actual port assignment,
// and each neighbor's certificate must confirm the shared edge with the
// same color.
func (d *evenCycleDecoder) Decide(mu *view.View) bool {
	center := view.Center
	if mu.Degree(center) != 2 {
		return false
	}
	own, ok := parseCycleCert(mu.Labels[center])
	if !ok {
		return false
	}
	if own.color[1] == own.color[2] {
		return false
	}
	for _, w := range mu.Adj[center] {
		j, ok := mu.Port(center, w) // own port of edge {center, w}
		if !ok || (j != 1 && j != 2) {
			return false
		}
		far, ok := mu.Port(w, center) // actual far-end port
		if !ok {
			return false
		}
		if own.farPort[j] != far {
			return false
		}
		nb, ok := parseCycleCert(mu.Labels[w])
		if !ok {
			return false
		}
		// The neighbor's entry for its own port `far` must point back
		// through our port j with the same color.
		if nb.farPort[far] != j || nb.color[far] != own.color[j] {
			return false
		}
	}
	return true
}

type evenCycleProver struct{}

var _ core.Prover = (*evenCycleProver)(nil)

// Certify walks the cycle once, alternately 2-edge-colors it, and encodes
// each node's two incident edge colors together with the far-end ports.
func (p *evenCycleProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	if !g.IsCycleGraph() {
		return nil, fmt.Errorf("graph is not a cycle: %v", g)
	}
	if g.N()%2 != 0 {
		return nil, fmt.Errorf("cycle length %d is odd (not 2-colorable)", g.N())
	}
	// Walk the cycle collecting edges in traversal order.
	edgeColor := make(map[[2]int]int) // normalized edge -> color
	prev, cur := -1, 0
	for i := 0; i < g.N(); i++ {
		next := -1
		for _, w := range g.Neighbors(cur) {
			if w != prev {
				next = w
				break
			}
		}
		if next == -1 { // n == 2 cannot happen in a simple cycle
			return nil, fmt.Errorf("cycle walk stuck at node %d", cur)
		}
		edgeColor[normEdge(cur, next)] = i % 2
		prev, cur = cur, next
	}
	labels := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		var q, c [3]int
		for _, w := range g.Neighbors(v) {
			j := inst.Prt.MustPort(v, w)
			q[j] = inst.Prt.MustPort(w, v)
			c[j] = edgeColor[normEdge(v, w)]
		}
		labels[v] = EvenCycleLabel(q[1], c[1], q[2], c[2])
	}
	return labels, nil
}

func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
