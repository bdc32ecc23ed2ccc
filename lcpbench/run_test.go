package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testSpecs are the three workloads cut down to test size; the suite reads
// the committed tables from the repository root.
func testSpecs() []workloadSpec {
	return []workloadSpec{
		{"suite", func(context.Context, int64) (workload, error) { return newSuite("../EXPERIMENTS.md") }, "experiments.speedup_w1"},
		{"soundness-sweep", func(_ context.Context, seed int64) (workload, error) {
			s := newSweep(seed)
			s.cases = s.cases[:3]
			return s, nil
		}, "core.sweep.speedup_w1"},
		{"sim-chaos", func(ctx context.Context, seed int64) (workload, error) {
			c, err := newChaos(ctx, seed)
			if err != nil {
				return nil, err
			}
			c.cases = c.cases[:16]
			return c, nil
		}, ""},
	}
}

// liveLayers names, per workload, metrics its traced run must observe.
var liveLayers = map[string][]string{
	"suite":           {"experiments.E3.ms", "experiments.E15.ms", "nbhd.build.ms", "nbhd.instances", "nbhd.views.extracted", "nbhd.intern.hit_ratio", "nbhd.decode.inner", "experiments.speedup_w1"},
	"soundness-sweep": {"core.sweep.labelings_per_s", "core.sweep.decide.calls", "core.sweep.decide.inner", "core.lang.evals", "decoders.decide.calls", "decoders.decide.ns_per_call", "core.sweep.speedup_w1"},
	"sim-chaos":       {"decoders.decide.calls", "decoders.certify.ms", "sim.self_ms", "sim.faultfree.ms", "sim.faulty.ms", "sim.rounds", "sim.messages", "sim.accept_ratio", "faults.dropped"},
}

// TestTracedRun runs each workload traced. Every traced op re-checks its
// output against the untraced run (tables, sweep verdicts, replay
// fingerprints) and the conservation invariants, so a correct result means
// tracing changed no output.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, spec := range testSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			res, err := run(context.Background(), spec, 1, time.Nanosecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range append(liveLayers[spec.name], "sched.util", "go.gc.cycles_per_op") {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			checkOutputShape(t, res)
		})
	}
}

// checkOutputShape pins that the printed result carries metric names, units
// and numbers only: there is no field through which a certificate or a view
// key could reach the output.
func checkOutputShape(t *testing.T, res *result) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{"error_rate": "ratio"}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[3 : len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || units[f[0]] != f[2] {
			t.Fatalf("unexpected table line %q", line)
		}
		for _, num := range []string{f[1], f[3]} {
			if _, err := strconv.ParseFloat(num, 64); err != nil {
				t.Fatalf("non-numeric value in %q", line)
			}
		}
	}
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]map[string]any
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("result line: %v", err)
	}
	for name, m := range last.Metrics {
		if units[name] == "" || len(m) != 2 || m["unit"] != units[name] {
			t.Fatalf("unexpected metric %s: %v", name, m)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Fatalf("metric %s: non-numeric value %v", name, m["value"])
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics and
// workloads the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
	compareDefs(t, "end_to_end", bench.EndToEnd, endToEnd)
	compareDefs(t, "per_layer", bench.PerLayer, perLayer)
}

type metricJSON struct{ Name, Unit string }

func compareDefs(t *testing.T, kind string, got []metricJSON, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
			t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
		}
	}
}

func TestCompareRefusesMismatchedStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(*result)) string {
		res := &result{Workload: "sim-chaos", Env: stamp{Nproc: 2, GOMAXPROCS: 2, Seed: 1},
			Metrics: map[string]metric{"op_ms.p50": {1, "ms", 10}}}
		mutate(res)
		path := filepath.Join(dir, name)
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", func(*result) {})
	cases := []struct {
		name   string
		mutate func(*result)
		code   int
	}{
		{"same", func(r *result) { r.Metrics["op_ms.p50"] = metric{2, "ms", 10} }, 0},
		{"nproc", func(r *result) { r.Env.Nproc = 4 }, 1},
		{"gomaxprocs", func(r *result) { r.Env.GOMAXPROCS = 1 }, 1},
		{"seed", func(r *result) { r.Env.Seed = 2 }, 1},
		{"workload", func(r *result) { r.Workload = "suite" }, 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareMain([]string{base, write(c.name+".json", c.mutate)}, &out); code != c.code {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.code)
		}
	}
}
