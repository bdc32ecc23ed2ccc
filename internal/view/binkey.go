package view

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync/atomic"

	"hidinglcp/internal/mem"
)

// keyScratch holds every per-call buffer of the canonical-key computation:
// orderings, refinement colors, and flat arm storage. The buffers are
// recycled through keyScratchPool; nothing reachable from a scratch may be
// returned to a caller — the final key is always a fresh copy (see the
// escape rules of internal/mem).
type keyScratch struct {
	ord, color, next []int // refinement working set
	armStart, armNbr []int
	armPorts         [][2]int
	arms             [][3]int
	classNodes       []int    // center + color-grouped rest; classes subslice it
	classes          [][]int  // class headers over classNodes
	tmp              []int    // idOrder duplicate detection
	order, pos       []int    // serialization ordering and its inverse
	arcs             [][2]int // one node's (port, neighbor) arcs, port key
}

var keyScratchPool mem.Pool[keyScratch]

// binKeysComputed counts BinKey cache misses, so tests can bound how often
// callers pay for the canonical ordering.
var binKeysComputed atomic.Uint64

// BinKey returns the canonical key of the view: two views have the same
// key iff they are equal as views (same radius, same N bound, and
// isomorphic via a center-fixing, distance-preserving bijection that
// matches identifiers, labels, and ports). The encoding is an
// append-to-[]byte varint serialization.
//
// When identifiers are present and distinct they already determine the
// canonical node order; otherwise a Weisfeiler-Leman-style refinement run
// over integer color arrays does, because it always ends with every node
// in a class of its own (see refinedBinKey).
//
// The key is computed once and cached. The returned slice is shared; the
// caller must not modify it.
func (v *View) BinKey() []byte {
	v.cacheMu.Lock()
	k := v.cachedBin
	if k == nil {
		k = v.computeBinKey()
		v.cachedBin = k
	}
	v.cacheMu.Unlock()
	return k
}

// Equal reports whether two views are equal as views, by comparing their
// cached identity keys (PortKey).
func (v *View) Equal(w *View) bool {
	if v == w {
		return true
	}
	if v.N() != w.N() || v.Radius != w.Radius || v.NBound != w.NBound {
		return false
	}
	return string(v.PortKey()) == string(w.PortKey())
}

func (v *View) computeBinKey() []byte {
	binKeysComputed.Add(1)
	sc := keyScratchPool.Get()
	defer keyScratchPool.Put(sc)
	if v.idOrderInto(sc) {
		sc.pos = mem.Ints(sc.pos, v.N())
		return v.appendBinSerialize(nil, sc.order, sc.pos)
	}
	return v.refinedBinKey(sc)
}

// idOrderSortCutoff is the view size above which idOrderInto switches from
// insertion sort to slices.SortFunc; below it the insertion sort wins on
// constant factors (see BenchmarkIDOrderCrossover).
const idOrderSortCutoff = 24

// idOrderInto computes the nodes sorted by (distance, identifier) into
// sc.order and reports whether all identifiers are nonzero and distinct
// (the precondition for the identifier-determined canonical order).
func (v *View) idOrderInto(sc *keyScratch) bool {
	n := v.N()
	tmp := mem.Ints(sc.tmp, n)
	sc.tmp = tmp
	for i, id := range v.IDs {
		if id == 0 {
			return false
		}
		tmp[i] = id
	}
	slices.Sort(tmp)
	for i := 1; i < n; i++ {
		if tmp[i] == tmp[i-1] {
			return false
		}
	}
	order := mem.Ints(sc.order, n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	dist, ids := v.Dist, v.IDs
	if n > idOrderSortCutoff {
		slices.SortFunc(order, func(x, y int) int {
			if dist[x] != dist[y] {
				return dist[x] - dist[y]
			}
			return ids[x] - ids[y]
		})
		return true
	}
	// Insertion sort by (dist, id); small views.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if dist[a] < dist[b] || (dist[a] == dist[b] && ids[a] < ids[b]) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return true
}

// appendBinSerialize renders the view under the given node ordering into
// dst: a varint header (radius, n, NBound), per node (dist, id,
// length-prefixed label), then every visible edge as (ka, kb, port a→b,
// port b→a) for positions ka < kb in increasing (ka, kb) order. Every field
// is self-delimiting, so the encoding determines the ordered view — equal
// bytes mean equal views under the chosen orderings.
func (v *View) appendBinSerialize(dst []byte, order, pos []int) []byte {
	n := v.N()
	if dst == nil {
		dst = make([]byte, 0, 16+8*n)
	}
	dst = binary.AppendUvarint(dst, uint64(v.Radius))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(v.NBound))
	for _, i := range order {
		dst = binary.AppendUvarint(dst, uint64(v.Dist[i]))
		dst = binary.AppendVarint(dst, int64(v.IDs[i]))
		dst = binary.AppendUvarint(dst, uint64(len(v.Labels[i])))
		dst = append(dst, v.Labels[i]...)
	}
	for k, i := range order {
		pos[i] = k
	}
	var nbArr [16]int
	nb := nbArr[:0]
	for ka := 0; ka < n; ka++ {
		a := order[ka]
		nb = nb[:0]
		for _, w := range v.Adj[a] {
			if kb := pos[w]; kb > ka {
				nb = append(nb, kb)
			}
		}
		insertionSortInts(nb)
		for _, kb := range nb {
			b := order[kb]
			dst = binary.AppendUvarint(dst, uint64(ka))
			dst = binary.AppendUvarint(dst, uint64(kb))
			dst = binary.AppendUvarint(dst, uint64(v.Ports[[2]int{a, b}]))
			dst = binary.AppendUvarint(dst, uint64(v.Ports[[2]int{b, a}]))
		}
	}
	return dst
}

// refinedBinKey serializes the view in the order of its refined classes.
// The refinement is discrete (every class a single node) for any view that
// meets the View invariants: the ports at a node are distinct, and both
// orientations of every visible edge are present. By induction on the
// distance d from the center, every node at distance <= d ends in a class
// of its own:
//
//   - d = 0: the center is the only node at distance 0, and distance is
//     part of the round-0 color.
//   - d -> d+1: a node x at distance d+1 has a neighbor u at distance d,
//     and the edge {x, u} is visible. The arm (port x→u, port u→x, color
//     of u) belongs to x alone: u is the only node with u's color, and
//     u's ports to different neighbors differ. A stable coloring gives
//     equal colors only to nodes with equal arm multisets, so x's color
//     is unique too.
//
// The forced order is therefore invariant under isomorphism, and the
// serialization is canonical with no search over orderings.
func (v *View) refinedBinKey(sc *keyScratch) []byte {
	classes := v.refinedClassesInt(sc)
	n := v.N()
	order := mem.Ints(sc.order, n)[:0]
	for _, c := range classes {
		if len(c) > 1 {
			panic("view: refinement not discrete; the view breaks an invariant (duplicate ports at a node, or a visible edge missing one port orientation)")
		}
		order = append(order, c...)
	}
	sc.order = order
	sc.pos = mem.Ints(sc.pos, n)
	return v.appendBinSerialize(nil, order, sc.pos)
}

// refinedClassesInt partitions the local nodes into ordered classes: nodes
// start colored by the rank of their invariant tuple (distance,
// label, degree, identifier) and are iteratively refined by the multiset of
// (port out, port back, neighbor color) arms, all over int arrays — no
// string signatures. The resulting partition is isomorphism-invariant, as
// is the class order (by color rank, center always first on its own), which
// is all refinedBinKey needs for canonicity. All working storage comes from the
// scratch; the returned class slices alias sc.classNodes and are valid only
// until the scratch is recycled.
func (v *View) refinedClassesInt(sc *keyScratch) [][]int {
	n := v.N()
	ord := mem.Ints(sc.ord, n)
	for i := range ord {
		ord[i] = i
	}
	sc.ord = ord
	initCmp := func(a, b int) int {
		if v.Dist[a] != v.Dist[b] {
			if v.Dist[a] < v.Dist[b] {
				return -1
			}
			return 1
		}
		if c := strings.Compare(v.Labels[a], v.Labels[b]); c != 0 {
			return c
		}
		if da, db := len(v.Adj[a]), len(v.Adj[b]); da != db {
			if da < db {
				return -1
			}
			return 1
		}
		switch {
		case v.IDs[a] < v.IDs[b]:
			return -1
		case v.IDs[a] > v.IDs[b]:
			return 1
		}
		return 0
	}
	insertionSortCmp(ord, initCmp)
	color := mem.Ints(sc.color, n)
	sc.color = color
	color[ord[0]] = 0
	colors := 1
	for k := 1; k < n; k++ {
		if initCmp(ord[k-1], ord[k]) != 0 {
			colors++
		}
		color[ord[k]] = colors - 1
	}

	if colors < n {
		// Flat arm storage: armStart[i]..armStart[i+1] are node i's arms.
		// Ports never change across rounds, so they are gathered once.
		armStart := mem.Ints(sc.armStart, n+1)
		sc.armStart = armStart
		armStart[0] = 0
		for i := 0; i < n; i++ {
			armStart[i+1] = armStart[i] + len(v.Adj[i])
		}
		m := armStart[n]
		armNbr := mem.Ints(sc.armNbr, m)
		sc.armNbr = armNbr
		if cap(sc.armPorts) < m {
			sc.armPorts = make([][2]int, m)
		}
		armPorts := sc.armPorts[:m]
		if cap(sc.arms) < m {
			sc.arms = make([][3]int, m)
		}
		arms := sc.arms[:m]
		for i := 0; i < n; i++ {
			for k, w := range v.Adj[i] {
				j := armStart[i] + k
				armNbr[j] = w
				armPorts[j] = [2]int{v.Ports[[2]int{i, w}], v.Ports[[2]int{w, i}]}
			}
		}
		next := mem.Ints(sc.next, n)
		sc.next = next
		armCmp := func(a, b int) int {
			if color[a] != color[b] {
				if color[a] < color[b] {
					return -1
				}
				return 1
			}
			// Equal colors imply equal degrees (degree is part of the
			// round-0 tuple), so the arm segments have equal length.
			sa := arms[armStart[a]:armStart[a+1]]
			sb := arms[armStart[b]:armStart[b+1]]
			for k := range sa {
				for c := 0; c < 3; c++ {
					if sa[k][c] != sb[k][c] {
						if sa[k][c] < sb[k][c] {
							return -1
						}
						return 1
					}
				}
			}
			return 0
		}
		for round := 0; round < n && colors < n; round++ {
			// Re-gather arms from the pristine port table each round:
			// sortArms permutes the segment, so ports and neighbor colors
			// must be re-paired before refilling.
			for j := 0; j < m; j++ {
				arms[j] = [3]int{armPorts[j][0], armPorts[j][1], color[armNbr[j]]}
			}
			for i := 0; i < n; i++ {
				sortArms(arms[armStart[i]:armStart[i+1]])
			}
			insertionSortCmp(ord, armCmp)
			nc := 1
			next[ord[0]] = 0
			for k := 1; k < n; k++ {
				if armCmp(ord[k-1], ord[k]) != 0 {
					nc++
				}
				next[ord[k]] = nc - 1
			}
			same := true
			for i := 0; i < n; i++ {
				if next[i] != color[i] {
					same = false
					break
				}
			}
			if same {
				break
			}
			copy(color, next)
			colors = nc
		}
	}

	// Center first on its own, then non-center nodes grouped by final color
	// in increasing order, increasing node index within a class.
	nodes := mem.Ints(sc.classNodes, n)
	sc.classNodes = nodes
	nodes[0] = Center
	rest := nodes[1:1]
	for i := 1; i < n; i++ {
		rest = append(rest, i)
	}
	slices.SortFunc(rest, func(a, b int) int {
		if color[a] != color[b] {
			return color[a] - color[b]
		}
		return a - b
	})
	classes := append(sc.classes[:0], nodes[0:1:1])
	for lo := 0; lo < len(rest); {
		hi := lo + 1
		for hi < len(rest) && color[rest[hi]] == color[rest[lo]] {
			hi++
		}
		classes = append(classes, rest[lo:hi:hi])
		lo = hi
	}
	sc.classes = classes
	return classes
}

// insertionSortCmp sorts s by the three-way comparator; views are tiny, so
// the quadratic sort beats the sort package's interface machinery and
// allocates nothing.
func insertionSortCmp(s []int, cmp func(a, b int) int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && cmp(s[j], s[j-1]) < 0; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortArms(s [][3]int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && armLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func armLess(a, b [3]int) bool {
	for c := 0; c < 3; c++ {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

// insertionSortInts sorts small int slices in place without the sort
// package's interface overhead; neighbor lists are tiny.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
