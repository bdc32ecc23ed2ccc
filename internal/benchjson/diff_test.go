package benchjson

import (
	"strings"
	"testing"
)

func diffSnap(date string, bs ...Benchmark) *Snapshot {
	return &Snapshot{Date: date, Benchmarks: bs}
}

func TestDiffNoRegressions(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkA", NsPerOp: 900, BytesPerOp: 4000, AllocsPerOp: 90},
	)
	var sb strings.Builder
	regs, err := Diff(&sb, old, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}
	if !strings.Contains(sb.String(), "ok") {
		t.Errorf("report missing ok verdicts:\n%s", sb.String())
	}
}

func TestDiffCatchesRegressions(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 120},
	)
	var sb strings.Builder
	regs, err := Diff(&sb, old, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %v, want one allocs/op regression", regs)
	}
	if regs[0].Ratio < 1.19 || regs[0].Ratio > 1.21 {
		t.Errorf("ratio = %.3f, want 1.2", regs[0].Ratio)
	}
	if !strings.Contains(regs[0].String(), "allocs/op") {
		t.Errorf("regression string %q does not name the metric", regs[0].String())
	}
}

func TestDiffPerBenchmarkOverride(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 150},
		Benchmark{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 101},
	)
	th := DefaultThresholds()
	th.PerBench = map[string]Limits{
		"BenchmarkNoisy": {AllocsRatio: 2.0},   // loosened: 1.5x passes
		"BenchmarkTight": {AllocsRatio: 1.001}, // tightened: +1% fails
	}
	var sb strings.Builder
	regs, err := Diff(&sb, old, cur, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Name != "BenchmarkTight" {
		t.Fatalf("regressions = %v, want exactly BenchmarkTight", regs)
	}
}

func TestDiffMissingBenchmarkRegresses(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkGone", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkKept", NsPerOp: 1000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkKept", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkAdded", NsPerOp: 1, AllocsPerOp: 1},
	)
	var sb strings.Builder
	regs, err := Diff(&sb, old, cur, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Name != "BenchmarkGone" {
		t.Fatalf("regressions = %v, want BenchmarkGone missing", regs)
	}
	if !strings.Contains(sb.String(), "new (no baseline)") {
		t.Errorf("report does not mark the added benchmark:\n%s", sb.String())
	}
}

// TestDiffRefusesProcsMismatch: a baseline measured at one GOMAXPROCS must
// not be compared against a run at another — allocs/op scales with the
// worker count — while a snapshot without recorded procs reads as 1.
func TestDiffRefusesProcsMismatch(t *testing.T) {
	legacy := diffSnap("old", Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100})
	atP2, err := Parse("BenchmarkA-2 3 1000 ns/op 0 B/op 108 allocs/op\n", "new")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := Diff(&sb, legacy, atP2, DefaultThresholds()); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("cross-procs diff was not refused: err=%v\n%s", err, sb.String())
	}

	atP1, err := Parse("BenchmarkA 3 1000 ns/op 0 B/op 101 allocs/op\n", "new")
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Diff(&sb, legacy, atP1, DefaultThresholds())
	if err != nil || len(regs) != 0 {
		t.Fatalf("same-procs diff: regs=%v err=%v", regs, err)
	}

	// A -cpu=1,2 series pairs its P=1 rows with the baseline and reports
	// the P=2 rows as new.
	series, err := Parse("BenchmarkA 3 1000 ns/op 0 B/op 101 allocs/op\nBenchmarkA-2 3 600 ns/op 0 B/op 108 allocs/op\n", "new")
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	regs, err = Diff(&sb, legacy, series, DefaultThresholds())
	if err != nil || len(regs) != 0 {
		t.Fatalf("scaling series diff: regs=%v err=%v", regs, err)
	}
	if !strings.Contains(sb.String(), "BenchmarkA-2") {
		t.Errorf("P=2 row not reported as new:\n%s", sb.String())
	}
}

func TestDiffZeroLimitDisablesMetric(t *testing.T) {
	old := diffSnap("old", Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10})
	cur := diffSnap("new", Benchmark{Name: "BenchmarkA", NsPerOp: 10000, AllocsPerOp: 10})
	var sb strings.Builder
	regs, err := Diff(&sb, old, cur, Thresholds{Default: Limits{AllocsRatio: 1.05}})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("ns/op checked despite zero limit: %v", regs)
	}
}

func TestDiffNoCommonBenchmarks(t *testing.T) {
	old := diffSnap("old")
	cur := diffSnap("new", Benchmark{Name: "BenchmarkA"})
	var sb strings.Builder
	if _, err := Diff(&sb, old, cur, DefaultThresholds()); err == nil {
		t.Error("expected an error for disjoint snapshots")
	}
}

func TestLimitsForInheritance(t *testing.T) {
	th := Thresholds{
		Default:  Limits{NsRatio: 1.5, BytesRatio: 1.2, AllocsRatio: 1.1},
		PerBench: map[string]Limits{"BenchmarkA": {BytesRatio: 3.0}},
	}
	l := th.limitsFor("BenchmarkA")
	if l.NsRatio != 1.5 || l.BytesRatio != 3.0 || l.AllocsRatio != 1.1 {
		t.Errorf("limitsFor override/inherit mismatch: %+v", l)
	}
	if l := th.limitsFor("BenchmarkB"); l != th.Default {
		t.Errorf("unlisted benchmark does not inherit defaults: %+v", l)
	}
}
