// Command lcpbench is the repository benchmark: time to verdict of the
// paper's verifiers on three closed-loop workloads, with a separate traced
// run that attributes it to the layers. See README.md in this directory for
// the metrics, the workloads and why each was chosen.
//
// Usage:
//
//	lcpbench --workload suite|soundness-sweep|sim-chaos --seed N --seconds S --trace 0|1 [--out result.json]
//	lcpbench compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart approximates the process start for the first set-up.
var processStart = time.Now()

// A run sets its workload up at least setupMinRuns times and for at least
// setupMinTime, at most setupMaxRuns times; setup_s is the median. A cheap
// set-up is repeated more, so its median does not hinge on a few samples.
const (
	setupMinRuns = 5
	setupMaxRuns = 50
	setupMinTime = 2 * time.Second
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the verifiers sees, printed with
// --trace 0. error_rate is printed in the table but kept out of the JSON
// metrics: it is 0 on a correct program, and the JSON carries the same
// information as attempted and failed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, printed with --trace 1. A metric
// of a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for i := 1; i <= 17; i++ {
		ms = append(ms, metricDef{fmt.Sprintf("experiments.E%d.ms", i), "ms"})
	}
	return append(ms, []metricDef{
		{"experiments.speedup_w1", "ratio"},
		{"engine.self_ms", "ms"},
		{"nbhd.build.ms", "ms"},
		{"nbhd.instances", "count"},
		{"nbhd.views.extracted", "count"},
		{"nbhd.intern.hit_ratio", "ratio"},
		{"nbhd.decode.inner", "count"},
		{"core.sweep.labelings_per_s", "1/s"},
		{"core.sweep.decide.calls", "count"},
		{"core.sweep.decide.inner", "count"},
		{"core.sweep.decide.memo_hit_ratio", "ratio"},
		{"core.sweep.shards.pruned", "count"},
		{"core.lang.evals", "count"},
		{"core.lang.ms", "ms"},
		{"core.sweep.self_ms", "ms"},
		{"core.sweep.speedup_w1", "ratio"},
		{"decoders.decide.calls", "count"},
		{"decoders.decide.ms", "ms"},
		{"decoders.decide.ns_per_call", "ns"},
		{"decoders.certify.ms", "ms"},
		{"sim.self_ms", "ms"},
		{"sim.faultfree.ms", "ms"},
		{"sim.faulty.ms", "ms"},
		{"sim.rounds", "count"},
		{"sim.messages", "count"},
		{"sim.records", "count"},
		{"sim.accept_ratio", "ratio"},
		{"faults.dropped", "count"},
		{"faults.duplicated", "count"},
		{"faults.delayed", "count"},
		{"faults.expired", "count"},
		{"go.gc.cycles_per_op", "count"},
		{"go.gc.pause_ms_per_op", "ms"},
		{"sched.util", "ratio"},
		{"trace.overhead", "ratio"},
	}...)
}()

// workloadSpec names a workload and how to set it up.
type workloadSpec struct {
	name  string
	setup func(ctx context.Context, seed int64) (workload, error)
	// speedupMetric names the single-worker speedup the traced run reports
	// ("" = the workload has no worker setting).
	speedupMetric string
}

var workloads = []workloadSpec{
	{"suite", func(context.Context, int64) (workload, error) { return newSuite("EXPERIMENTS.md") }, "experiments.speedup_w1"},
	{"soundness-sweep", func(_ context.Context, seed int64) (workload, error) { return newSweep(seed), nil }, "core.sweep.speedup_w1"},
	{"sim-chaos", func(ctx context.Context, seed int64) (workload, error) { return newChaos(ctx, seed) }, ""},
}

// metric is one reported value with its sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run's outcome. The last stdout line carries its first four
// fields; --out writes all of it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       stamp             `json:"env"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload: suite, soundness-sweep or sim-chaos")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", "", "also write the stamped result to this JSON file")
	flag.Parse()

	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), *spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcpbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "lcpbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "lcpbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up repeatedly, then measures it. The untraced
// run measures the end-to-end metrics over the whole budget. The traced run
// splits the budget between an untraced phase (the baseline for
// trace.overhead and the runtime metrics), a traced phase and, where the
// workload has a worker setting, a single-worker phase.
func run(ctx context.Context, spec workloadSpec, seed int64, budget time.Duration, traced bool) (*result, error) {
	var w workload
	var setupS []float64
	spent := 0.0
	for len(setupS) < setupMinRuns || (spent < setupMinTime.Seconds() && len(setupS) < setupMaxRuns) {
		t0 := time.Now()
		if len(setupS) == 0 {
			t0 = processStart
		}
		var err error
		if w, err = spec.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", spec.name, err)
		}
		if err := w.op(ctx, 0, nil); err != nil {
			return nil, fmt.Errorf("%s warm-up op: %w", spec.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[len(setupS)-1]
	}
	res := &result{Workload: spec.name, Trace: traced, Env: newStamp(seed), Metrics: map[string]metric{}}
	if !traced {
		p := measure(ctx, w, budget, nil)
		res.Attempted, res.Failed = p.ops(), p.failed
		for name, m := range endToEndMetrics(&p, setupS) {
			res.Metrics[name] = m
		}
		res.Correct = p.failed == 0
		return res, nil
	}

	share := budget / 2
	if spec.speedupMetric != "" {
		share = budget / 3
	}
	untraced := measure(ctx, w, share, nil)
	tr := newTracer()
	tracedPhase := measure(ctx, w, share, tr)
	vals := map[string]float64{}
	tr.medians(vals)
	w.layers(tr, &untraced, vals)
	base := median(untraced.opMS)
	vals["trace.overhead"] = median(tracedPhase.opMS)/base - 1
	n := float64(untraced.ops())
	vals["go.gc.cycles_per_op"] = float64(untraced.gcCycles) / n
	vals["go.gc.pause_ms_per_op"] = float64(untraced.gcPause) / float64(time.Millisecond) / n
	vals["sched.util"] = untraced.cpu.Seconds() / (untraced.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
	phases := []*phase{&untraced, &tracedPhase}
	if spec.speedupMetric != "" {
		sw := w.(interface{ setWorkers(int) })
		sw.setWorkers(1)
		single := measure(ctx, w, share, nil)
		sw.setWorkers(0)
		vals[spec.speedupMetric] = median(single.opMS) / base
		phases = append(phases, &single)
	}
	for _, p := range phases {
		res.Attempted += p.ops()
		res.Failed += p.failed
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit, Samples: tracedPhase.ops()}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics derives the end-to-end metrics of one untraced phase.
func endToEndMetrics(p *phase, setupS []float64) map[string]metric {
	ops := p.ops()
	n := float64(ops)
	return map[string]metric{
		"setup_s":         {median(setupS), "s", len(setupS)},
		"op_ms.p50":       {quantile(p.opMS, 0.5), "ms", ops},
		"op_ms.p90":       {quantile(p.opMS, 0.9), "ms", ops},
		"ops_per_s":       {n / p.elapsed.Seconds(), "1/s", ops},
		"cpu_ms_per_op":   {float64(p.cpu) / float64(time.Millisecond) / n, "ms", ops},
		"alloc_mb_per_op": {mb(p.alloc) / n, "MB", ops},
		"peak_rss_mb":     {peakRSSMB(), "MB", 1},
		"error_rate":      {float64(p.failed) / n, "ratio", ops},
	}
}

// printResult writes the human-readable table, then the result line.
func printResult(w io.Writer, res *result) error {
	mode := 0
	defs := endToEnd
	if res.Trace {
		mode = 1
		defs = perLayer
	}
	fmt.Fprintf(w, "lcpbench workload=%s trace=%d\n", res.Workload, mode)
	fmt.Fprintf(w, "env %s\n", res.Env)
	fmt.Fprintf(w, "%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	shown := defs
	if !res.Trace {
		shown = append(append([]metricDef(nil), defs...), metricDef{"error_rate", "ratio"})
	}
	for _, d := range shown {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-34s %16.6g  %-6s %d\n", d.name, m.Value, m.Unit, m.Samples)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, d := range defs {
		line.Metrics[d.name] = valueUnit{res.Metrics[d.name].Value, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}
