package view_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// decodePortKey rebuilds a view from its port key, following the encoding
// documented on PortKey, and fails the test on a key that does not parse
// exactly. The key's own BFS positions become the local node numbers.
func decodePortKey(t *testing.T, k []byte) *view.View {
	t.Helper()
	next := func() int {
		x, w := binary.Uvarint(k)
		if w <= 0 {
			t.Fatalf("port key truncated")
		}
		k = k[w:]
		return int(x)
	}
	mu := &view.View{Radius: next()}
	n := next()
	mu.NBound = next()
	arcs := next()
	mu.Adj = make([][]int, n)
	mu.Dist = make([]int, n)
	mu.IDs = make([]int, n)
	mu.Labels = make([]string, n)
	mu.Ports = map[[2]int]int{}
	for a := 0; a < n; a++ {
		mu.Dist[a] = next()
		id, w := binary.Varint(k)
		if w <= 0 {
			t.Fatalf("port key truncated")
		}
		k = k[w:]
		mu.IDs[a] = int(id)
		deg := next()
		for j := 0; j < deg; j++ {
			p, b := next(), next()
			if b >= n {
				t.Fatalf("arc to position %d of %d", b, n)
			}
			mu.Adj[a] = append(mu.Adj[a], b)
			mu.Ports[[2]int{a, b}] = p
			arcs--
		}
		slices.Sort(mu.Adj[a])
	}
	for a := 0; a < n; a++ {
		l := next()
		if l > len(k) {
			t.Fatalf("label overruns the port key")
		}
		mu.Labels[a], k = string(k[:l]), k[l:]
	}
	if arcs != 0 || len(k) != 0 {
		t.Fatalf("port key has %d arcs unaccounted for and %d trailing bytes", arcs, len(k))
	}
	return mu
}

// keyPartition checks, view by view, that PortKey and BinKey induce the
// same equivalence classes: each port key maps to one BinKey and vice
// versa. It also decodes every port key back into a view equal to the
// original, so the key provably determines the view.
type keyPartition struct {
	t      *testing.T
	byPort map[string]string // port key -> BinKey
	byBin  map[string]string // BinKey -> port key
}

func newKeyPartition(t *testing.T) *keyPartition {
	return &keyPartition{t: t, byPort: map[string]string{}, byBin: map[string]string{}}
}

func (kp *keyPartition) add(mu *view.View) {
	kp.t.Helper()
	p, b := string(mu.PortKey()), string(mu.BinKey())
	if d := decodePortKey(kp.t, mu.PortKey()); string(d.BinKey()) != b {
		kp.t.Fatalf("port key %x decodes to a different view", p)
	}
	if prev, ok := kp.byPort[p]; ok && prev != b {
		kp.t.Fatalf("port key %x maps to two BinKeys:\n%x\n%x", p, prev, b)
	}
	kp.byPort[p] = b
	if prev, ok := kp.byBin[b]; ok && prev != p {
		kp.t.Fatalf("BinKey %x maps to two port keys:\n%x\n%x", b, prev, p)
	}
	kp.byBin[b] = p
}

// TestPortKeyPartitionMatchesBinKey runs the BinKey oracle corpora, plus
// every port assignment of the connected graphs on up to 4 nodes, and
// checks that two views have equal port keys iff their BinKeys are equal.
func TestPortKeyPartitionMatchesBinKey(t *testing.T) {
	kp := newKeyPartition(t)
	connectedCorpus(kp.add)
	portsAndIDsCorpus(kp.add)
	labels := []string{"p", "q", "p", "q"}
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			gg := g.Clone()
			graph.EnumPorts(gg, func(pt *graph.Ports) bool {
				for r := 1; r <= 2; r++ {
					for v := 0; v < n; v++ {
						kp.add(view.MustExtract(gg, pt, nil, labels[:n], n, v, r))
					}
				}
				return true
			})
			return true
		})
	}
	if len(kp.byPort) < 100 {
		t.Fatalf("suspiciously few classes: %d", len(kp.byPort))
	}
}

// TestTemplateKeyMatchesPortKey checks that a template's AppendKey writes
// the view-level port key of the instantiated view byte for byte, with one
// TemplateKey and one buffer reused across templates of different sizes.
func TestTemplateKeyMatchesPortKey(t *testing.T) {
	tor, err := graph.Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{graph.Grid(3, 3), graph.MustCycle(5), graph.Petersen(), graph.Path(4), tor}
	var ex view.Extractor
	var tk view.TemplateKey
	var buf []byte
	for gi, g := range graphs {
		n := g.N()
		pt := graph.DefaultPorts(g)
		dup := make(graph.IDs, n)
		for v := range dup {
			dup[v] = 1 + v%3
		}
		for _, ids := range []graph.IDs{nil, graph.SequentialIDs(n), dup} {
			for r := 0; r <= 2; r++ {
				for c := 0; c < n; c++ {
					tpl, err := ex.Template(g, pt, ids, n+1, c, r)
					if err != nil {
						t.Fatal(err)
					}
					tk.Reset(tpl)
					for s := 0; s < 3; s++ {
						labels := make([]string, n)
						for v := range labels {
							labels[v] = fmt.Sprintf("%c%d", 'a'+(v*7+s*3+c)%4, s)
						}
						buf = tk.AppendKey(buf[:0], labels)
						if want := tpl.Instantiate(labels).PortKey(); !bytes.Equal(buf, want) {
							t.Fatalf("graph %d ids=%v r=%d center=%d: AppendKey\n%x\nwant PortKey\n%x", gi, ids, r, c, buf, want)
						}
					}
				}
			}
		}
	}
}

// TestPortKeyPanicsOnBrokenInvariants hand-builds views that break the
// View invariants the port key rests on; the key must panic rather than
// depend on node numbering.
func TestPortKeyPanicsOnBrokenInvariants(t *testing.T) {
	star := func(ports map[[2]int]int) *view.View {
		return &view.View{
			Radius: 1,
			Adj:    [][]int{{1, 2}, {0}, {0}},
			Dist:   []int{0, 1, 1},
			Ports:  ports,
			IDs:    []int{0, 0, 0},
			Labels: []string{"x", "x", "x"},
			NBound: 3,
		}
	}
	cases := map[string]*view.View{
		"missing orientation": star(map[[2]int]int{{1, 0}: 1, {2, 0}: 1}),
		"duplicate port":      star(map[[2]int]int{{0, 1}: 1, {0, 2}: 1, {1, 0}: 1, {2, 0}: 1}),
	}
	for name, mu := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("PortKey returned a key for a view that breaks the View invariants")
				}
			}()
			mu.PortKey()
		})
	}
}

// relabel returns g with host node v renamed perm[v] and its port
// assignment transported along: port p of perm[v] leads to perm[w] iff
// port p of v leads to w.
func relabel(t *testing.T, g *graph.Graph, pt *graph.Ports, perm []int) (*graph.Graph, *graph.Ports) {
	t.Helper()
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		if err := h.AddEdge(perm[e[0]], perm[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]int, h.N())
	for v := 0; v < g.N(); v++ {
		row := make([]int, g.Degree(v))
		for p := 1; p <= g.Degree(v); p++ {
			w, err := pt.NeighborAt(v, p)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range h.Neighbors(perm[v]) {
				if x == perm[w] {
					row[p-1] = i
				}
			}
		}
		rows[perm[v]] = row
	}
	hp, err := graph.PortsFromPerm(h, rows)
	if err != nil {
		t.Fatal(err)
	}
	return h, hp
}

// FuzzPortKeyMatchesBinKey cross-checks PortKey against BinKey on
// fuzz-built view pairs: a view of a graph with fuzzed ports, identifiers
// and labels against a view of a renumbered copy of the same instance.
// Equal port keys must coincide with equal BinKeys, the renumbered copy of
// a view must keep its port key, and the template writer must agree with
// the view writer.
func FuzzPortKeyMatchesBinKey(f *testing.F) {
	f.Add([]byte{3, 0xff, 1, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 0x3f, 2, 1, 0, 0, 0, 0, 9, 9})
	f.Add([]byte{5, 0xaa, 1, 2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{4, 0x2d, 2, 0, 7, 1, 3, 3, 5, 8, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		at := func(i int) int { return int(data[i%len(data)]) }
		n := 2 + at(0)%4
		g := graph.New(n)
		k := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if at(1)&(1<<uint(k%8)) != 0 || k == 0 {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
				k++
			}
		}
		// Ports: rotate each node's default order by a fuzzed amount.
		rows := make([][]int, n)
		for v := range rows {
			d := g.Degree(v)
			rows[v] = make([]int, d)
			for p := range rows[v] {
				rows[v][p] = (p + at(6+v)) % d
			}
		}
		pt, err := graph.PortsFromPerm(g, rows)
		if err != nil {
			t.Fatal(err)
		}
		r := at(2) % 3
		var ids graph.IDs
		switch at(3) % 3 {
		case 1:
			ids = graph.SequentialIDs(n)
		case 2:
			ids = make(graph.IDs, n)
			for v := range ids {
				ids[v] = 1 + at(4+v)%3 // collision-heavy
			}
		}
		labels := make([]string, n)
		for v := range labels {
			labels[v] = string(rune('a' + at(5+v)%3))
		}

		// A renumbered copy: host v becomes (v + shift) mod n.
		shift := 1 + at(len(data)-2)%n
		perm := make([]int, n)
		for v := range perm {
			perm[v] = (v + shift) % n
		}
		h, hp := relabel(t, g, pt, perm)
		var hids graph.IDs
		if ids != nil {
			hids = make(graph.IDs, n)
		}
		hlabels := make([]string, n)
		for v := 0; v < n; v++ {
			if ids != nil {
				hids[perm[v]] = ids[v]
			}
			hlabels[perm[v]] = labels[v]
		}

		c1, c2 := at(4)%n, at(len(data)-1)%n
		v1 := view.MustExtract(g, pt, ids, labels, n, c1, r)
		v2 := view.MustExtract(g, pt, ids, labels, n, c2, r)
		w2 := view.MustExtract(h, hp, hids, hlabels, n, perm[c2], r)
		if !bytes.Equal(v2.PortKey(), w2.PortKey()) {
			t.Fatalf("renumbering the host changed the port key:\n%x\n%x", v2.PortKey(), w2.PortKey())
		}
		if !bytes.Equal(decodePortKey(t, v1.PortKey()).BinKey(), v1.BinKey()) {
			t.Fatal("port key decodes to a different view")
		}
		for _, mu := range []*view.View{v2, w2} {
			portEq := bytes.Equal(v1.PortKey(), mu.PortKey())
			binEq := bytes.Equal(v1.BinKey(), mu.BinKey())
			if portEq != binEq {
				t.Fatalf("port key equality %v, BinKey equality %v", portEq, binEq)
			}
		}

		var ex view.Extractor
		tpl, err := ex.Template(h, hp, hids, n, perm[c1], r)
		if err != nil {
			t.Fatal(err)
		}
		var tk view.TemplateKey
		tk.Reset(tpl)
		if got, want := tk.AppendKey(nil, hlabels), tpl.Instantiate(hlabels).PortKey(); !bytes.Equal(got, want) {
			t.Fatalf("template key\n%x\nwant view key\n%x", got, want)
		}
	})
}
