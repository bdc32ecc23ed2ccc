package nbhd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// appendLenPrefixed appends s with a varint length prefix, making
// concatenations of several strings unambiguous.
func appendLenPrefixed(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// builder is one goroutine's accumulator for the Lemma 3.1 construction,
// running on the identity-key fast path: views are deduplicated by port
// key through a shared view.Interner into dense handles, the accepting and
// loop sets are handle-indexed bool slices instead of map[string] tables,
// each view class is decided exactly once, by the builder that interns it
// first, and per-instance view extraction reuses templates whenever the
// enumerator varies only the labeling of a fixed instance — the
// AllLabelings hot case.
//
// The interner is shared across builders; everything else is private to
// one goroutine.
type builder struct {
	d    core.Decoder
	in   *view.Interner
	ex   view.Extractor
	anon bool
	r    int

	accepting []bool
	loops     []bool
	edges     pairSet
	handles   []view.Handle

	// arena backs the instantiated views of new classes: the interner
	// retains each as its class representative, so they are slab-allocated
	// and released wholesale with the builder instead of one heap object per
	// interner miss.
	arena view.Arena

	// Single-entry template cache, keyed on the identity of the instance's
	// label-independent parts.
	tG      *graph.Graph
	tPrt    *graph.Ports
	tNBound int
	tIDs    *int
	tpl     []*view.Template
	tEdges  [][2]int
	// tKeys[v] is the label-free prefix of node v's port key, so a
	// template-memo miss probes the interner with TemplateKey.AppendKey
	// into pkBuf: most misses are still interner hits (another labeling or
	// another worker saw the class first), and those need no view at all.
	tKeys []view.TemplateKey
	pkBuf []byte
	// tMemo[v] maps node v's host-labels key to the interned handle of its
	// view, so repeat neighborhood labelings of a cached instance skip
	// instantiation, canonicalization, and interning entirely.
	tMemo  []map[string]view.Handle
	keyBuf []byte

	// Plain (non-atomic) tallies, private to the owning goroutine; the
	// parallel driver reads them only after its WaitGroup barrier.
	nInstances      int64 // labeled instances absorbed
	nViews          int64 // views instantiated + interned (template-memo misses)
	nLookupHits     int64 // port-key probe interner hits (no view needed)
	nTmplMemoHits   int64 // views served from the per-node label-key memo
	nTemplatesBuilt int64 // template cache rebuilds (instance identity changed)
	nDecided        int64 // view classes this builder interned and decided
}

func newBuilder(d core.Decoder, in *view.Interner) *builder {
	return &builder{
		d:    d,
		in:   in,
		anon: d.Anonymous(),
		r:    d.Rounds(),
	}
}

func (b *builder) grow(n int) {
	if n > len(b.accepting) {
		b.accepting = append(b.accepting, make([]bool, n-len(b.accepting))...)
		b.loops = append(b.loops, make([]bool, n-len(b.loops))...)
	}
}

// absorb folds one labeled instance into the builder.
func (b *builder) absorb(l core.Labeled) {
	b.nInstances++
	ids := l.IDs
	if b.anon {
		// Anonymous decoders are keyed and decided on anonymized views;
		// extracting without identifiers produces them directly, without
		// the legacy per-view Anonymize clone.
		ids = nil
	}
	var idsHead *int
	if len(ids) > 0 {
		idsHead = &ids[0]
	}
	if b.tpl == nil || b.tG != l.G || b.tPrt != l.Prt || b.tNBound != l.NBound || b.tIDs != idsHead {
		n := l.G.N()
		b.tpl = b.tpl[:0]
		for v := 0; v < n; v++ {
			t, err := b.ex.Template(l.G, l.Prt, ids, l.NBound, v, b.r)
			if err != nil {
				// Enumerators produce valid instances by construction.
				panic(fmt.Sprintf("nbhd.Build: invalid instance from enumerator: %v", fmt.Errorf("node %d: %w", v, err)))
			}
			b.tpl = append(b.tpl, t)
		}
		b.tEdges = l.G.Edges()
		b.tG, b.tPrt, b.tNBound, b.tIDs = l.G, l.Prt, l.NBound, idsHead
		b.nTemplatesBuilt++
		b.tMemo = make([]map[string]view.Handle, n)
		for v := range b.tMemo {
			b.tMemo[v] = make(map[string]view.Handle)
		}
		if cap(b.tKeys) < n {
			b.tKeys = make([]view.TemplateKey, n)
		}
		b.tKeys = b.tKeys[:n]
		for v, t := range b.tpl {
			b.tKeys[v].Reset(t)
		}
	}

	handles := b.handles[:0]
	for v := range b.tpl {
		t := b.tpl[v]
		kb := b.keyBuf[:0]
		for _, w := range t.Hosts() {
			kb = appendLenPrefixed(kb, l.Labels[w])
		}
		b.keyBuf = kb
		if h, ok := b.tMemo[v][string(kb)]; ok {
			// The identical (template, neighborhood labels) pair was already
			// interned and decided by this builder.
			b.nTmplMemoHits++
			handles = append(handles, h)
			continue
		}
		b.nViews++
		// Probe with the port key first: on a hit (the common case) no view
		// is needed at all. Only a genuinely new class — or a race where
		// another worker interns it between LookupKey and InternKey, which
		// InternKey resolves — pays for an arena-backed view the interner
		// may retain as representative.
		pk := b.tKeys[v].AppendKey(b.pkBuf[:0], l.Labels)
		b.pkBuf = pk
		h, ok := b.in.LookupKey(pk)
		var mu *view.View
		if ok {
			b.nLookupHits++
		} else {
			mu = t.InstantiateIn(&b.arena, l.Labels)
			h = b.in.InternKey(pk, mu)
		}
		b.tMemo[v][string(kb)] = h
		handles = append(handles, h)
		b.grow(int(h) + 1)
		// The interner keeps the first view of a class as its
		// representative, so this builder created the class iff its arena
		// view is the representative. Only the creator decides: decoders
		// are pure, so one verdict serves every worker (the accepting sets
		// merge by union), and the decode count does not depend on which
		// worker claimed which shard.
		if !ok && b.in.ViewOf(h) == mu {
			b.nDecided++
			b.accepting[h] = b.d.Decide(mu)
		}
	}
	b.handles = handles

	for _, e := range b.tEdges {
		ha, hb := handles[e[0]], handles[e[1]]
		if ha == hb {
			b.loops[ha] = true
			continue
		}
		b.edges.add(packPair(ha, hb))
	}
}

// mergeBuilders unions the per-worker accepting/loop sets and CSR edge
// streams. Handles are global (one shared interner), so the union is
// positional; the merged edge pairs come back sorted and deduplicated
// (mergePairs).
func mergeBuilders(parts []*builder) (accepting, loops []bool, edges []uint64) {
	maxLen := 0
	for _, p := range parts {
		if len(p.accepting) > maxLen {
			maxLen = len(p.accepting)
		}
	}
	accepting = make([]bool, maxLen)
	loops = make([]bool, maxLen)
	for _, p := range parts {
		for h, a := range p.accepting {
			if a {
				accepting[h] = true
			}
		}
		for h, lo := range p.loops {
			if lo {
				loops[h] = true
			}
		}
	}
	return accepting, loops, mergePairs(parts)
}

// assemble keeps only accepting views and builds the NGraph in the
// deterministic canonical-key (BinKey) sorted node order — handle values
// depend on intern order and never leak into the output. edges is the
// merged CSR pair stream: distinct packed handle pairs in ascending order
// (mergePairs). Distinct handle pairs map to distinct node pairs (the
// handle→index map is injective), so no HasEdge filtering is needed.
func assemble(in *view.Interner, accepting, loops []bool, edges []uint64) (*NGraph, error) {
	type node struct {
		h   view.Handle
		key []byte
	}
	nodes := make([]node, 0, len(accepting))
	for h, a := range accepting {
		if a {
			hh := view.Handle(h)
			nodes = append(nodes, node{hh, in.ViewOf(hh).BinKey()})
		}
	}
	slices.SortFunc(nodes, func(a, b node) int { return bytes.Compare(a.key, b.key) })

	ng := &NGraph{
		views: make([]*view.View, len(nodes)),
		in:    in,
		loops: make(map[int]bool),
	}
	idx := make([]int, in.Len())
	for i := range idx {
		idx[i] = -1
	}
	for i, nd := range nodes {
		ng.views[i] = in.ViewOf(nd.h)
		idx[nd.h] = i
	}
	ng.hidx = idx
	ng.g = graph.New(len(nodes))
	for _, e := range edges {
		a, b := unpackPair(e)
		ia, ib := idx[a], idx[b]
		if ia < 0 || ib < 0 {
			continue // an endpoint never accepts anywhere
		}
		if err := ng.g.AddEdge(ia, ib); err != nil {
			return nil, fmt.Errorf("adding compatibility edge: %w", err)
		}
	}
	for h, lo := range loops {
		if lo {
			if i := idx[h]; i >= 0 {
				ng.loops[i] = true
			}
		}
	}
	return ng, nil
}
