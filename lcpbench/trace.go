package main

import (
	"sync/atomic"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// tracer collects the traced phase's per-layer measurements, all taken from
// the benchmark's own code: wrappers around the decoders, provers and
// languages it passes in, counters the program already records into the
// obs.Scope it is handed, and op times minus the time spent in child calls.
// It holds counts and durations only, never certificates or view keys.
type tracer struct {
	// samples are per-op (or per-pass) values, reported as their median.
	samples map[string][]float64
	// totals are sums over the traced phase; each workload turns them into
	// per-op means, rates and ratios.
	totals map[string]float64
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, totals: map[string]float64{}}
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) add(name string, v float64) { t.totals[name] += v }

// ratio returns totals[num]/totals[den], or 0 when the denominator is 0.
func (t *tracer) ratio(num, den string) float64 {
	if t.totals[den] == 0 {
		return 0
	}
	return t.totals[num] / t.totals[den]
}

// medians reports every sampled series by its median.
func (t *tracer) medians(out map[string]float64) {
	for name, xs := range t.samples {
		out[name] = median(xs)
	}
}

// timedDecoder counts and times Decide calls. The verdict is delegated
// unchanged; the counters are atomic because the sweep workers share it.
type timedDecoder struct {
	core.Decoder
	calls atomic.Int64
	ns    atomic.Int64
}

func (d *timedDecoder) Decide(mu *view.View) bool {
	//lint:ignore obspurity timing wrapper: the verdict is delegated unchanged
	t0 := time.Now()
	out := d.Decoder.Decide(mu)
	//lint:ignore obspurity timing wrapper: the verdict is delegated unchanged
	d.ns.Add(int64(time.Since(t0)))
	d.calls.Add(1)
	return out
}

// timedProver times Certify calls.
type timedProver struct {
	core.Prover
	ns int64
}

func (p *timedProver) Certify(inst core.Instance) ([]string, error) {
	t0 := time.Now()
	labels, err := p.Prover.Certify(inst)
	p.ns += int64(time.Since(t0))
	return labels, err
}

// langTimer counts and times Language.Contains evaluations.
type langTimer struct {
	evals atomic.Int64
	ns    atomic.Int64
}

// wrap returns lang with Contains routed through the timer.
func (lt *langTimer) wrap(lang core.Language) core.Language {
	contains := lang.Contains
	lang.Contains = func(g *graph.Graph) bool {
		t0 := time.Now()
		ok := contains(g)
		lt.ns.Add(int64(time.Since(t0)))
		lt.evals.Add(1)
		return ok
	}
	return lang
}

func nsToMS(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
