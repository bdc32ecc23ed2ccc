package main

import (
	"context"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// errorRate runs one cycle of w untraced and returns its error_rate.
func errorRate(t *testing.T, w workload) float64 {
	t.Helper()
	p := measure(context.Background(), w, time.Nanosecond, nil)
	return endToEndMetrics(&p, []float64{1})["error_rate"].Value
}

// The canaries prove each workload's output check is live: a wrong output
// must raise error_rate above 0, and the unperturbed workload must not.

func TestSuiteCanaryPerturbedRow(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	s, err := newSuite("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if r := errorRate(t, s); r != 0 {
		t.Fatalf("unperturbed suite: error_rate %v, want 0", r)
	}
	s.mutate = func(tb *experiments.Table) {
		if tb.ID == "E2" {
			tb.Rows[0][len(tb.Rows[0])-1] += " "
		}
	}
	if r := errorRate(t, s); r <= 0 {
		t.Fatalf("perturbed E2 row: error_rate %v, want > 0", r)
	}
}

func TestSweepCanaryAlwaysAccept(t *testing.T) {
	accept := core.NewDecoder(1, true, func(*view.View) bool { return true })
	s := &sweep{cases: []sweepCase{{
		scheme: "always-accept",
		d:      accept,
		lang:   core.TwoCol(),
		inst:   core.NewAnonymousInstance(graph.MustCycle(5)),
		alpha:  []string{"0", "1"},
	}}}
	if r := errorRate(t, s); r <= 0 {
		t.Fatalf("always-accept decoder on C5: error_rate %v, want > 0", r)
	}
}

func TestChaosCanaryFlippedVerdict(t *testing.T) {
	c, err := newChaos(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := errorRate(t, c); r != 0 {
		t.Fatalf("unperturbed sim-chaos: error_rate %v, want 0", r)
	}
	c.flip = true
	if r := errorRate(t, c); r <= 0 {
		t.Fatalf("flipped node verdict: error_rate %v, want > 0", r)
	}
}

// The conservation checks of the traced run must reject inconsistent
// counters.

func TestSimConservationCheck(t *testing.T) {
	sc := obs.NewScope()
	sc.Counter("sim.nodes").Add(3)
	sc.Counter("sim.verdicts.accepted").Add(1)
	sc.Counter("sim.verdicts.crashed").Add(1)
	if err := recordFaulty(newTracer(), sc); err == nil {
		t.Fatal("accepted + rejected + crashed = 2 of 3 nodes passed")
	}
	sc.Counter("sim.verdicts.rejected").Add(1)
	if err := recordFaulty(newTracer(), sc); err != nil {
		t.Fatal(err)
	}
}

func TestInternConservationCheck(t *testing.T) {
	sc := obs.NewScope().WithTracer(obs.NewTracer(0))
	sc.Counter("nbhd.views.extracted").Add(10)
	sc.Counter("nbhd.intern.hits").Add(7)
	sc.Counter("nbhd.intern.misses").Add(2)
	s := &suite{}
	if err := s.record(newTracer(), sc, nil, nil, 1); err == nil {
		t.Fatal("10 views extracted with 9 intern lookups passed")
	}
	sc.Counter("nbhd.intern.misses").Add(1)
	if err := s.record(newTracer(), sc, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
}
