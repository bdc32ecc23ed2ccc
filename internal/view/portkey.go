package view

import (
	"encoding/binary"

	"hidinglcp/internal/mem"
)

// PortKey returns the identity key of the view: two views have the same
// port key iff they are equal as views, which is the same partition BinKey
// induces. It costs one breadth-first pass instead of a refinement, because
// a view is rigid under its port numbering (see refinedBinKey): the BFS
// from the center that takes each node's neighbors by increasing port
// visits isomorphic views in corresponding orders, so serializing in that
// order is already canonical, whatever the labels.
//
// The encoding is a varint header (radius, n, NBound, number of arcs),
// then per node in BFS order its distance, identifier and degree followed
// by its arcs in port order as (port, BFS position of the neighbor), and
// last every node's length-prefixed label in BFS order. Both orientations
// of a visible edge appear as arcs, so the key fixes both port numbers.
//
// PortKey identifies classes; output whose order is observable sorts by
// BinKey instead. The key is computed once and cached; the returned slice
// is shared and must not be modified.
func (v *View) PortKey() []byte {
	v.cacheMu.Lock()
	k := v.cachedPort
	if k == nil {
		sc := keyScratchPool.Get()
		k = v.appendPortStructure(make([]byte, 0, 16+8*v.N()), sc)
		k = appendPortLabels(k, v.Labels, sc.order)
		keyScratchPool.Put(sc)
		v.cachedPort = k
	}
	v.cacheMu.Unlock()
	return k
}

// TemplateKey is the label-independent part of the port keys of the views
// one Template instantiates: the key prefix up to the labels, and the host
// node at each BFS position. It lets a caller that sweeps labelings of a
// fixed instance key a view without instantiating it.
//
// The zero value is empty; Reset fills it.
type TemplateKey struct {
	prefix []byte
	hosts  []int
}

// Reset recomputes k for template t, reusing k's storage.
func (k *TemplateKey) Reset(t *Template) {
	sc := keyScratchPool.Get()
	structure := View{Radius: t.radius, Adj: t.adj, Dist: t.dist, Ports: t.ports, IDs: t.ids, NBound: t.nBound}
	k.prefix = structure.appendPortStructure(k.prefix[:0], sc)
	k.hosts = k.hosts[:0]
	for _, i := range sc.order {
		k.hosts = append(k.hosts, t.hosts[i])
	}
	keyScratchPool.Put(sc)
}

// AppendKey appends to dst the port key of t.Instantiate(labels), where t
// is the template k was last Reset to, and returns the extended slice.
// labels must cover the full host graph, as for Instantiate.
func (k *TemplateKey) AppendKey(dst []byte, labels []string) []byte {
	return appendPortLabels(append(dst, k.prefix...), labels, k.hosts)
}

// appendPortStructure appends the label-free part of v's port key to dst
// and leaves the local nodes in BFS order in sc.order. It panics on a view
// that breaks the View invariants the key's canonicity rests on: a visible
// edge missing one port orientation, two equal ports at a node, or a node
// the center cannot reach.
func (v *View) appendPortStructure(dst []byte, sc *keyScratch) []byte {
	n := v.N()
	arcs := 0
	for _, nb := range v.Adj {
		arcs += len(nb)
	}
	dst = binary.AppendUvarint(dst, uint64(v.Radius))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(v.NBound))
	dst = binary.AppendUvarint(dst, uint64(arcs))
	pos := mem.Ints(sc.pos, n)
	for i := range pos {
		pos[i] = -1
	}
	order := append(mem.Ints(sc.order, n)[:0], Center)
	pos[Center] = 0
	for k := 0; k < len(order); k++ {
		a := order[k]
		out := sc.arcs[:0]
		for _, w := range v.Adj[a] {
			p, ok := v.Ports[[2]int{a, w}]
			if !ok {
				panic("view: port key needs both port orientations of every visible edge")
			}
			out = append(out, [2]int{p, w})
		}
		sortArcsByPort(out)
		sc.arcs = out
		dst = binary.AppendUvarint(dst, uint64(v.Dist[a]))
		dst = binary.AppendVarint(dst, int64(v.IDs[a]))
		dst = binary.AppendUvarint(dst, uint64(len(out)))
		for _, e := range out {
			w := e[1]
			if pos[w] < 0 {
				pos[w] = len(order)
				order = append(order, w)
			}
			dst = binary.AppendUvarint(dst, uint64(e[0]))
			dst = binary.AppendUvarint(dst, uint64(pos[w]))
		}
	}
	if len(order) != n {
		panic("view: port key needs every node reachable from the center")
	}
	sc.order, sc.pos = order, pos
	return dst
}

// appendPortLabels appends the length-prefixed labels of the nodes in order.
func appendPortLabels(dst []byte, labels []string, order []int) []byte {
	for _, i := range order {
		dst = binary.AppendUvarint(dst, uint64(len(labels[i])))
		dst = append(dst, labels[i]...)
	}
	return dst
}

// sortArcsByPort insertion-sorts (port, neighbor) arcs by port and panics
// on two equal ports, which would leave the BFS order to node numbering.
func sortArcsByPort(s [][2]int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j][0] < s[j-1][0]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	for i := 1; i < len(s); i++ {
		if s[i][0] == s[i-1][0] {
			panic("view: port key needs distinct ports at every node")
		}
	}
}
