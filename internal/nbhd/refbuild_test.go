package nbhd

import (
	"sort"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// referenceBuild is the plain Lemma 3.1 construction, the differential
// oracle for the interned fast path: per-view extraction, per-occurrence
// decoding, and map[string] dedupe tables keyed by the canonical key.
func referenceBuild(t *testing.T, d core.Decoder, enum Enumerator) (keys []string, edges map[[2]string]bool, loops map[string]bool) {
	t.Helper()
	accepting := map[string]bool{}
	views := map[string]*view.View{}
	edges = map[[2]string]bool{}
	loops = map[string]bool{}
	err := enum(func(l core.Labeled) bool {
		n := l.G.N()
		nodeKey := make([]string, n)
		for v := 0; v < n; v++ {
			mu, err := view.Extract(l.G, l.Prt, l.IDs, l.Labels, l.NBound, v, d.Rounds())
			if err != nil {
				t.Fatalf("reference extraction: %v", err)
			}
			if d.Anonymous() {
				mu = mu.Anonymize()
			}
			k := string(mu.BinKey())
			nodeKey[v] = k
			if _, ok := views[k]; !ok {
				views[k] = mu
			}
			if d.Decide(mu) {
				accepting[k] = true
			}
		}
		for _, e := range l.G.Edges() {
			ka, kb := nodeKey[e[0]], nodeKey[e[1]]
			if ka == kb {
				loops[ka] = true
				continue
			}
			if ka > kb {
				ka, kb = kb, ka
			}
			edges[[2]string{ka, kb}] = true
		}
		return true
	})
	if err != nil {
		t.Fatalf("reference enumeration: %v", err)
	}
	for k := range accepting {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Filter edge and loop tables down to accepting endpoints, as assembly
	// does.
	for e := range edges {
		if !accepting[e[0]] || !accepting[e[1]] {
			delete(edges, e)
		}
	}
	for k := range loops {
		if !accepting[k] {
			delete(loops, k)
		}
	}
	return keys, edges, loops
}

// compareAgainstReference checks an NGraph node-for-node and edge-for-edge
// against the reference construction.
func compareAgainstReference(t *testing.T, ng *NGraph, keys []string, edges map[[2]string]bool, loops map[string]bool) {
	t.Helper()
	if ng.Size() != len(keys) {
		t.Fatalf("size %d, reference %d", ng.Size(), len(keys))
	}
	for i, k := range keys {
		if got := string(ng.ViewAt(i).BinKey()); got != k {
			t.Fatalf("node %d key %x, reference %x", i, got, k)
		}
		if ng.IndexOfView(ng.ViewAt(i)) != i {
			t.Fatalf("IndexOfView at %d does not roundtrip", i)
		}
	}
	gotEdges := map[[2]string]bool{}
	for _, e := range ng.Graph().Edges() {
		ka, kb := keys[e[0]], keys[e[1]]
		if ka > kb {
			ka, kb = kb, ka
		}
		gotEdges[[2]string{ka, kb}] = true
	}
	if len(gotEdges) != len(edges) {
		t.Fatalf("edge count %d, reference %d", len(gotEdges), len(edges))
	}
	for e := range edges {
		if !gotEdges[e] {
			t.Fatalf("reference edge %x missing", e)
		}
	}
	gotLoops := map[string]bool{}
	for i := range keys {
		if ng.HasLoop(i) {
			gotLoops[keys[i]] = true
		}
	}
	if len(gotLoops) != len(loops) {
		t.Fatalf("loop count %d, reference %d", len(gotLoops), len(loops))
	}
	for k := range loops {
		if !gotLoops[k] {
			t.Fatalf("reference loop at %x missing", k)
		}
	}
}

// TestBuildMatchesReference runs the interned fast-path Build against the
// reference on every decoder archetype: anonymous (DegreeOne, EvenCycle)
// and identifier-dependent (Shatter), over exhaustive labeling enumerations
// and prover labelings, both as one sequential builder and sharded across
// workers. The 11-node star carries identifiers and NBound of 10 and more,
// where byte-wise key order and decimal order disagree.
func TestBuildMatchesReference(t *testing.T) {
	evenFam, err := decoders.EvenCycleFamily(4, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustCycle(4)
	shatterInst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: graph.SequentialIDs(4), NBound: 4}
	cases := []struct {
		name  string
		d     core.Decoder
		se    ShardedEnumerator
		empty bool // no view accepts: the build must yield the empty graph
	}{
		{"degree-one-exhaustive-n4", decoders.DegreeOne().Decoder,
			AllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), false},
		{"even-cycle-certified", decoders.EvenCycle().Decoder, FromLabeled(evenFam...), false},
		{"shatter-with-ids", decoders.Shatter().Decoder, AllLabelings([]string{"0", "1"}, shatterInst), true},
		{"shatter-star11-ids", decoders.Shatter().Decoder,
			ProverLabeled(decoders.Shatter(), core.NewInstance(graph.Star(11))), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, edges, loops := referenceBuild(t, tc.d, tc.se.Sequential())
			if (len(keys) == 0) != tc.empty {
				t.Fatalf("reference has %d accepting views, want empty = %v", len(keys), tc.empty)
			}
			for _, c := range []struct{ shards, workers int }{{1, 1}, {4, 3}} {
				ng, err := Build(nil, obs.Scope{}, tc.d, tc.se, c.shards, c.workers)
				if err != nil {
					t.Fatal(err)
				}
				compareAgainstReference(t, ng, keys, edges, loops)
			}
		})
	}
}
