package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"hidinglcp/internal/engine"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/obs"
)

// suite is the `experiments` CLI path: one op is one full E1–E17 pass
// through engine.Default().ExperimentsJob under engine.Runner with a nil
// ctx, and every rendered table must appear byte-for-byte in the committed
// EXPERIMENTS.md. The tables are fixed by the paper, so the seed is unused.
type suite struct {
	reg    *engine.Registry
	golden string
	// untraced holds the renders of the latest untraced pass; traced passes
	// must reproduce them exactly.
	untraced []string
	// mutate, when set, edits every table before it is checked. Only the
	// canary tests set it.
	mutate func(*experiments.Table)
}

func newSuite(goldenPath string) (*suite, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading the committed tables: %w", err)
	}
	return &suite{reg: engine.Default(), golden: string(data)}, nil
}

func (s *suite) cycle() int { return 1 }

func (s *suite) setWorkers(n int) { experiments.SetParallelism(0, n) }

func (s *suite) op(_ context.Context, _ int, tr *tracer) error {
	var sc obs.Scope
	if tr != nil {
		sc = obs.NewScope().WithTracer(obs.NewTracer(0))
		experiments.SetScope(sc)
		defer experiments.SetScope(obs.Scope{})
	}
	var ids, renders []string
	var expMS []float64
	start := time.Now()
	last := start
	job := s.reg.ExperimentsJob(engine.ExperimentsConfig{Emit: func(t experiments.Table) {
		expMS = append(expMS, msSince(last))
		if s.mutate != nil {
			s.mutate(&t)
		}
		ids = append(ids, t.ID)
		renders = append(renders, t.Render())
		// Rendering counts as the engine's time, not the next experiment's.
		last = time.Now()
	}})
	err := engine.Runner{Scope: sc}.Run(nil, job)
	passMS := msSince(start)
	if err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	if len(renders) != len(s.reg.Experiments()) {
		return fmt.Errorf("suite: %d tables, want %d", len(renders), len(s.reg.Experiments()))
	}
	for i, r := range renders {
		if !strings.Contains(s.golden, strings.TrimSpace(r)) {
			return fmt.Errorf("suite: table %s differs from EXPERIMENTS.md", ids[i])
		}
	}
	if tr == nil {
		s.untraced = renders
		return nil
	}
	for i, r := range renders {
		if i >= len(s.untraced) || r != s.untraced[i] {
			return fmt.Errorf("suite: traced table %s differs from the untraced one", ids[i])
		}
	}
	return s.record(tr, sc, ids, expMS, passMS)
}

// record files one traced pass: experiment times between Emit callbacks, the
// engine's own time, and the nbhd build counters and spans the experiments
// report into the scope.
func (s *suite) record(tr *tracer, sc obs.Scope, ids []string, expMS []float64, passMS float64) error {
	sum := 0.0
	for i, id := range ids {
		tr.sample("experiments."+id+".ms", expMS[i])
		sum += expMS[i]
	}
	tr.sample("engine.self_ms", passMS-sum)

	buildNS := int64(0)
	for _, sp := range sc.Tracer().Spans() {
		if strings.HasSuffix(sp.Name, "nbhd.build") {
			buildNS += sp.DurationNS
		}
	}
	tr.sample("nbhd.build.ms", nsToMS(buildNS))

	c := func(name string) float64 { return float64(sc.Counter(name).Value()) }
	extracted, hits, misses := c("nbhd.views.extracted"), c("nbhd.intern.hits"), c("nbhd.intern.misses")
	if extracted != hits+misses {
		return fmt.Errorf("suite: nbhd.views.extracted = %.0f, want intern hits + misses = %.0f", extracted, hits+misses)
	}
	tr.sample("nbhd.instances", c("nbhd.instances"))
	tr.sample("nbhd.views.extracted", extracted)
	tr.sample("nbhd.decode.inner", c("nbhd.decode.inner"))
	tr.add("intern.hits", hits)
	tr.add("intern.lookups", hits+misses)
	return nil
}

func (s *suite) layers(tr *tracer, _ *phase, out map[string]float64) {
	out["nbhd.intern.hit_ratio"] = tr.ratio("intern.hits", "intern.lookups")
}
