package view_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// bruteKey is the test oracle for BinKey, computed straight from the
// definition of view equality: the smallest simple serialization of the
// view over every node order that puts the center first. When all
// identifiers are nonzero and distinct they already fix the order, so only
// the identifier order is tried.
func bruteKey(mu *view.View) string {
	rest := make([]int, 0, mu.N())
	seen := map[int]bool{}
	distinct := true
	for i := 0; i < mu.N(); i++ {
		if i != view.Center {
			rest = append(rest, i)
		}
		if id := mu.IDs[i]; id == 0 || seen[id] {
			distinct = false
		} else {
			seen[id] = true
		}
	}
	if distinct {
		sort.Slice(rest, func(a, b int) bool { return mu.IDs[rest[a]] < mu.IDs[rest[b]] })
		return serialize(mu, append([]int{view.Center}, rest...))
	}
	best := ""
	var permute func(k int)
	permute = func(k int) {
		if k == len(rest) {
			if s := serialize(mu, append([]int{view.Center}, rest...)); best == "" || s < best {
				best = s
			}
			return
		}
		for j := k; j < len(rest); j++ {
			rest[k], rest[j] = rest[j], rest[k]
			permute(k + 1)
			rest[k], rest[j] = rest[j], rest[k]
		}
	}
	permute(0)
	return best
}

// serialize renders mu with order[k] placed at position k: the header, then
// every node's distance, identifier and label, then every visible edge
// between positions ka < kb with its two port numbers.
func serialize(mu *view.View, order []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d n%d N%d", mu.Radius, mu.N(), mu.NBound)
	for _, i := range order {
		fmt.Fprintf(&b, "|d%d i%d l%q", mu.Dist[i], mu.IDs[i], mu.Labels[i])
	}
	for ka, a := range order {
		for kb := ka + 1; kb < len(order); kb++ {
			c := order[kb]
			if p, ok := mu.Ports[[2]int{a, c}]; ok {
				fmt.Fprintf(&b, "|e%d,%d:%d,%d", ka, kb, p, mu.Ports[[2]int{c, a}])
			}
		}
	}
	return b.String()
}

// partitionChecker verifies, view by view, that bruteKey and BinKey induce
// exactly the same equivalence classes: each brute-force key maps to one
// binary key and vice versa, and Equal agrees with both.
type partitionChecker struct {
	t       *testing.T
	byBrute map[string]string // brute-force key -> binary key
	byBin   map[string]string // binary key -> brute-force key
	rep     map[string]*view.View
	other   *view.View
}

func newPartitionChecker(t *testing.T) *partitionChecker {
	return &partitionChecker{
		t:       t,
		byBrute: map[string]string{},
		byBin:   map[string]string{},
		rep:     map[string]*view.View{},
	}
}

func (pc *partitionChecker) add(mu *view.View) {
	pc.t.Helper()
	k := bruteKey(mu)
	b := string(mu.BinKey())
	if prev, ok := pc.byBrute[k]; ok && prev != b {
		pc.t.Fatalf("brute-force key maps to two binary keys:\nkey %q\nbin %x\nbin %x", k, prev, b)
	}
	pc.byBrute[k] = b
	if prev, ok := pc.byBin[b]; ok && prev != k {
		pc.t.Fatalf("binary key maps to two brute-force keys:\nbin %x\nkey %q\nkey %q", b, prev, k)
	}
	pc.byBin[b] = k
	if rep, ok := pc.rep[b]; ok {
		if !rep.Equal(mu) {
			pc.t.Fatalf("Equal is false inside one key class %q", k)
		}
	} else {
		pc.rep[b] = mu
	}
	if pc.other != nil && string(pc.other.BinKey()) != b {
		if pc.other.Equal(mu) {
			pc.t.Fatalf("Equal is true across distinct key classes %q vs %q", bruteKey(pc.other), k)
		}
	}
	pc.other = mu
}

func (pc *partitionChecker) classes() int { return len(pc.byBin) }

// connectedCorpus yields the views of every connected graph on up to 4
// nodes under every 2-letter labeling, with sequential identifiers and
// anonymously, at radii 1 and 2.
func connectedCorpus(yield func(*view.View)) {
	alphabet := []string{"a", "b"}
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			gg := g.Clone()
			pt := graph.DefaultPorts(gg)
			ids := graph.SequentialIDs(n)
			graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
				labels := make([]string, n)
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				for r := 1; r <= 2; r++ {
					for v := 0; v < n; v++ {
						yield(view.MustExtract(gg, pt, ids, labels, n, v, r))
						yield(view.MustExtract(gg, pt, nil, labels, n, v, r))
					}
				}
				return true
			})
			return true
		})
	}
}

// portsAndIDsCorpus yields views that vary the parts connectedCorpus keeps
// fixed: every port assignment of C4, duplicated and zero-mixed identifier
// assignments, and two NBound values.
func portsAndIDsCorpus(yield func(*view.View)) {
	g := graph.MustCycle(4)
	labels := []string{"x", "y", "x", "z"}
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		for v := 0; v < g.N(); v++ {
			yield(view.MustExtract(g, pt, nil, labels, g.N(), v, 1))
		}
		return true
	})
	pt := graph.DefaultPorts(g)
	idCases := []graph.IDs{
		{7, 7, 3, 5}, // duplicate nonzero: disables the idOrder fast path
		{0, 1, 2, 3}, // zero mixed in
		{9, 8, 7, 6}, // descending
		{1, 2, 3, 4}, // ascending
	}
	for _, ids := range idCases {
		for nb := 4; nb <= 5; nb++ {
			for r := 1; r <= 2; r++ {
				for v := 0; v < g.N(); v++ {
					yield(view.MustExtract(g, pt, ids, labels, nb, v, r))
				}
			}
		}
	}
}

// TestBinKeyPartitionConnectedGraphs checks that BinKey and bruteKey
// partition the connected corpus identically.
func TestBinKeyPartitionConnectedGraphs(t *testing.T) {
	pc := newPartitionChecker(t)
	connectedCorpus(pc.add)
	if pc.classes() < 50 {
		t.Fatalf("suspiciously few classes: %d", pc.classes())
	}
}

// TestBinKeyPartitionPortsAndDuplicateIDs checks the same on the port and
// identifier corpus.
func TestBinKeyPartitionPortsAndDuplicateIDs(t *testing.T) {
	pc := newPartitionChecker(t)
	portsAndIDsCorpus(pc.add)
}

// TestBinKeyCanonicalUnderRelabeling checks canonicity directly: the same
// anonymous structure presented under permuted host-node numbering must
// produce identical binary keys (the property the discrete refinement
// guarantees).
func TestBinKeyCanonicalUnderRelabeling(t *testing.T) {
	// C5 labeled twice with rotated node numbering.
	a := graph.MustCycle(5)
	labels := []string{"p", "q", "p", "q", "r"}
	muA := view.MustExtract(a, graph.DefaultPorts(a), nil, labels, 5, 0, 2)

	b := graph.New(5)
	// Same cycle with nodes renumbered v -> (v+2) mod 5.
	perm := func(v int) int { return (v + 2) % 5 }
	for v := 0; v < 5; v++ {
		w := (v + 1) % 5
		if !b.HasEdge(perm(v), perm(w)) {
			if err := b.AddEdge(perm(v), perm(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	labelsB := make([]string, 5)
	for v := 0; v < 5; v++ {
		labelsB[perm(v)] = labels[v]
	}

	// Ports may differ between the two presentations (DefaultPorts follows
	// adjacency order), so only structural equality up to ports is forced;
	// with ports equalized via EnumPorts, some assignment must match.
	found := false
	graph.EnumPorts(b, func(pt *graph.Ports) bool {
		mu := view.MustExtract(b, pt, nil, labelsB, 5, perm(0), 2)
		if bytes.Equal(mu.BinKey(), muA.BinKey()) {
			if bruteKey(mu) != bruteKey(muA) {
				t.Fatal("binary keys match but brute-force keys differ")
			}
			found = true
			return false
		}
		if bruteKey(mu) == bruteKey(muA) {
			t.Fatal("brute-force keys match but binary keys differ")
		}
		return true
	})
	if !found {
		t.Fatal("no port assignment reproduces the rotated view")
	}
}

// TestBinKeyPanicsOnMissingPortOrientation hand-builds a view that breaks
// the View invariant "both orientations of every visible edge are
// present": the star K_{1,2} with only the leaf-side ports, both 1. The
// two leaves are then indistinguishable, the refinement cannot end
// discrete, and BinKey must panic rather than return a key that depends on
// node numbering.
func TestBinKeyPanicsOnMissingPortOrientation(t *testing.T) {
	mu := &view.View{
		Radius: 1,
		Adj:    [][]int{{1, 2}, {0}, {0}},
		Dist:   []int{0, 1, 1},
		Ports:  map[[2]int]int{{1, 0}: 1, {2, 0}: 1},
		IDs:    []int{0, 0, 0},
		Labels: []string{"x", "x", "x"},
		NBound: 3,
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "refinement not discrete") {
			t.Fatalf("recovered %q, want the refinement-invariant panic", msg)
		}
	}()
	mu.BinKey()
}

// TestKeyCacheCloneSafety is the satellite mutation test: the key is cached
// on first computation, and the cache must never leak into clones or
// anonymized copies, nor go stale on the original.
func TestKeyCacheCloneSafety(t *testing.T) {
	g := graph.Grid(3, 3)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i%3)
	}
	mu := view.MustExtract(g, pt, ids, labels, g.N(), 4, 2)

	b1 := append([]byte(nil), mu.BinKey()...)
	if !bytes.Equal(mu.BinKey(), b1) {
		t.Fatal("cached key is not stable")
	}

	// A clone mutated before keying must compute its own key...
	c := mu.Clone()
	c.Labels[0] = "mutated"
	if bytes.Equal(c.BinKey(), b1) {
		t.Fatal("key cache leaked into a mutated clone")
	}
	// ...and the original's cache must survive the clone's life unchanged.
	if !bytes.Equal(mu.BinKey(), b1) {
		t.Fatal("original key changed after mutating a clone")
	}

	// An unmutated clone agrees with the original without sharing the cache.
	c2 := mu.Clone()
	if !bytes.Equal(c2.BinKey(), b1) {
		t.Fatal("unmutated clone disagrees with original")
	}

	// Anonymize drops identifiers, so its key must differ from the cached
	// identified one, and the original cache must again be untouched.
	a := mu.Anonymize()
	if bytes.Equal(a.BinKey(), b1) {
		t.Fatal("anonymized view reused the identified key cache")
	}
	if !bytes.Equal(mu.BinKey(), b1) {
		t.Fatal("original key changed after Anonymize")
	}

	// An already-anonymous view returns itself from Anonymize; the shared
	// cache is then genuinely the same view's cache, which is sound.
	if a.Anonymize() != a {
		t.Fatal("anonymous view should Anonymize to itself")
	}
}

// TestIDOrderSortCutoff exercises both sides of the idOrder crossover (the
// insertion sort below the cutoff, slices.SortFunc above): keys must stay
// canonical at both sizes.
func TestIDOrderSortCutoff(t *testing.T) {
	for _, leaves := range []int{8, 40} {
		star := func(order []int) (*graph.Graph, graph.IDs, []string, int) {
			g := graph.New(leaves + 1)
			for _, v := range order {
				if err := g.AddEdge(0, v); err != nil {
					t.Fatal(err)
				}
			}
			ids := make(graph.IDs, leaves+1)
			labels := make([]string, leaves+1)
			ids[0] = 1000
			labels[0] = "c"
			for v := 1; v <= leaves; v++ {
				ids[v] = 2000 + v
				labels[v] = fmt.Sprintf("leaf%d", v%5)
			}
			return g, ids, labels, leaves + 1
		}
		asc := make([]int, leaves)
		desc := make([]int, leaves)
		for i := 0; i < leaves; i++ {
			asc[i] = i + 1
			desc[i] = leaves - i
		}
		gA, idsA, labelsA, n := star(asc)
		gD, idsD, labelsD, _ := star(desc)
		muA := view.MustExtract(gA, graph.DefaultPorts(gA), idsA, labelsA, n, 0, 1)
		muD := view.MustExtract(gD, graph.DefaultPorts(gD), idsD, labelsD, n, 0, 1)
		// Edge insertion order changed the port assignment; star ports from
		// the center are the adjacency positions, so DefaultPorts gives the
		// ascending star port p to neighbor with id 2000+p+1 and the
		// descending star port p to id 2000+leaves-p. Those are genuinely
		// different views; equality must hold only after aligning ports.
		ptAligned := graph.DefaultPorts(gA)
		muAligned := view.MustExtract(gA, ptAligned, idsA, labelsA, n, 0, 1)
		if !bytes.Equal(muAligned.BinKey(), muA.BinKey()) {
			t.Fatalf("leaves=%d: identical extraction disagrees with itself", leaves)
		}
		if (bruteKey(muA) == bruteKey(muD)) != bytes.Equal(muA.BinKey(), muD.BinKey()) {
			t.Fatalf("leaves=%d: brute-force and binary keys disagree on the port-permuted pair", leaves)
		}
	}
}

// FuzzBinKeyMatchesBruteForce cross-checks the three equality notions —
// bruteKey, BinKey, and Equal — on fuzz-built view pairs, including
// anonymous and duplicate-identifier cases.
func FuzzBinKeyMatchesBruteForce(f *testing.F) {
	f.Add([]byte{3, 0xff, 1, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 0x3f, 2, 1, 0, 0, 0, 0, 9, 9})
	f.Add([]byte{5, 0xaa, 1, 2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%4
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		mask := int(data[1])
		g := graph.New(n)
		for i, e := range pairs {
			if mask&(1<<uint(i%8)) != 0 || i == 0 {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := int(data[2]) % 3
		mode := int(data[3]) % 3
		var ids graph.IDs
		switch mode {
		case 1:
			ids = graph.SequentialIDs(n)
		case 2:
			ids = make(graph.IDs, n)
			for v := 0; v < n; v++ {
				// Deliberately collision-heavy identifiers.
				ids[v] = 1 + int(data[(4+v)%len(data)])%3
			}
		}
		labels := make([]string, n)
		for v := 0; v < n; v++ {
			labels[v] = string(rune('a' + int(data[(5+v)%len(data)])%3))
		}
		pt := graph.DefaultPorts(g)
		c1 := int(data[4]) % n
		c2 := int(data[len(data)-1]) % n
		v1 := view.MustExtract(g, pt, ids, labels, n, c1, r)
		v2 := view.MustExtract(g, pt, ids, labels, n, c2, r)

		bruteEq := bruteKey(v1) == bruteKey(v2)
		binEq := bytes.Equal(v1.BinKey(), v2.BinKey())
		eq := v1.Equal(v2)
		if bruteEq != binEq || binEq != eq {
			t.Fatalf("equality notions disagree: brute=%v bin=%v equal=%v\nv1=%q\nv2=%q",
				bruteEq, binEq, eq, bruteKey(v1), bruteKey(v2))
		}
		// Determinism across a cache-free recomputation.
		if !bytes.Equal(v1.Clone().BinKey(), v1.BinKey()) {
			t.Fatal("key is not deterministic under Clone")
		}
		// The anonymous projections must agree with each other the same way.
		a1, a2 := v1.Anonymize(), v2.Anonymize()
		if (bruteKey(a1) == bruteKey(a2)) != bytes.Equal(a1.BinKey(), a2.BinKey()) {
			t.Fatalf("anonymous equality notions disagree: brute=%v bin=%v",
				bruteKey(a1) == bruteKey(a2), bytes.Equal(a1.BinKey(), a2.BinKey()))
		}
	})
}

// BenchmarkIDOrderCrossover measures identifier-ordered canonicalization at
// view sizes straddling the insertion-sort/slices.SortFunc cutoff (24).
func BenchmarkIDOrderCrossover(b *testing.B) {
	for _, leaves := range []int{8, 16, 24, 32, 64, 128} {
		g := graph.New(leaves + 1)
		for v := 1; v <= leaves; v++ {
			if err := g.AddEdge(0, v); err != nil {
				b.Fatal(err)
			}
		}
		pt := graph.DefaultPorts(g)
		ids := graph.SequentialIDs(g.N())
		labels := make([]string, g.N())
		mu := view.MustExtract(g, pt, ids, labels, g.N(), 0, 1)
		b.Run(fmt.Sprintf("n=%d", leaves+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = mu.Clone().BinKey()
			}
		})
	}
}
