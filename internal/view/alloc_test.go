//go:build !race

package view_test

import (
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Allocation pins for the steady-state extraction paths. The race detector
// instruments allocations, so these run only in plain builds.

// TestInstantiateIntoAllocs pins the scratch-view refill at zero
// allocations: after the first call sizes the label slice, sweeping
// labelings through one scratch view must not touch the heap.
func TestInstantiateIntoAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = "x"
	}
	var ex view.Extractor
	tpl, err := ex.Template(g, pt, nil, g.N(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var scratch view.View
	tpl.InstantiateInto(&scratch, labels) // size the label slice once
	if n := testing.AllocsPerRun(100, func() {
		tpl.InstantiateInto(&scratch, labels)
	}); n != 0 {
		t.Errorf("InstantiateInto allocates %.1f objects per call in steady state, want 0", n)
	}
}

// TestCachedKeyAllocs pins cached key reads at zero allocations.
func TestCachedKeyAllocs(t *testing.T) {
	g := graph.MustCycle(8)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	mu := view.MustExtract(g, pt, nil, labels, g.N(), 0, 1)
	mu.BinKey()
	mu.PortKey()
	if n := testing.AllocsPerRun(100, func() {
		_ = mu.BinKey()
		_ = mu.PortKey()
	}); n != 0 {
		t.Errorf("cached BinKey and PortKey allocate %.1f objects per call, want 0", n)
	}
}

// TestTemplateKeyLookupAllocs pins the nbhd builder's interner-hit path at
// zero allocations: writing a view's port key from its template into a
// reused buffer and probing the interner with it.
func TestTemplateKeyLookupAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = []string{"x", "y", "z"}[i%3]
	}
	var ex view.Extractor
	tpl, err := ex.Template(g, pt, nil, g.N(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tk view.TemplateKey
	tk.Reset(tpl)
	in := view.NewInterner()
	mu := tpl.Instantiate(labels)
	in.InternKey(mu.PortKey(), mu)
	buf := tk.AppendKey(nil, labels) // size the buffer once
	if n := testing.AllocsPerRun(100, func() {
		buf = tk.AppendKey(buf[:0], labels)
		if _, ok := in.LookupKey(buf); !ok {
			t.Fatal("interned view not found by its template key")
		}
	}); n != 0 {
		t.Errorf("AppendKey + LookupKey allocates %.1f objects per call, want 0", n)
	}
}

// TestInternerLookupAllocs pins Interner.Lookup on a view at zero
// allocations once the view's port key is cached.
func TestInternerLookupAllocs(t *testing.T) {
	g := graph.MustCycle(8)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	mu := view.MustExtract(g, pt, nil, labels, g.N(), 0, 2)
	in := view.NewInterner()
	in.InternKey(mu.PortKey(), mu)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := in.Lookup(mu); !ok {
			t.Fatal("interned view not found")
		}
	}); n != 0 {
		t.Errorf("Interner.Lookup allocates %.1f objects per call, want 0", n)
	}
}
