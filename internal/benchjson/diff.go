package benchjson

import (
	"fmt"
	"io"
	"strings"
)

// Limits bounds the acceptable new/old ratio per metric for one benchmark.
// A zero field means "no limit for this metric" (or, inside a per-benchmark
// override, "inherit the default"). Ratios above the limit are regressions.
type Limits struct {
	NsRatio     float64 `json:"ns_ratio,omitempty"`
	BytesRatio  float64 `json:"bytes_ratio,omitempty"`
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
}

// Thresholds is a regression policy: default limits plus per-benchmark
// overrides (matched by exact benchmark name, -GOMAXPROCS suffix stripped).
type Thresholds struct {
	Default  Limits            `json:"default"`
	PerBench map[string]Limits `json:"per_benchmark,omitempty"`
}

// DefaultThresholds returns the policy used when no thresholds file is
// given: wall time is checked loosely (CI machines are noisy), bytes/op
// moderately, and allocs/op tightly — allocation counts are deterministic,
// so any growth there is a real code change.
func DefaultThresholds() Thresholds {
	return Thresholds{Default: Limits{NsRatio: 1.5, BytesRatio: 1.15, AllocsRatio: 1.05}}
}

// limitsFor resolves the effective limits for one benchmark: per-benchmark
// fields override the default field-wise; zero fields inherit.
func (t Thresholds) limitsFor(name string) Limits {
	l := t.Default
	if o, ok := t.PerBench[name]; ok {
		if o.NsRatio != 0 {
			l.NsRatio = o.NsRatio
		}
		if o.BytesRatio != 0 {
			l.BytesRatio = o.BytesRatio
		}
		if o.AllocsRatio != 0 {
			l.AllocsRatio = o.AllocsRatio
		}
	}
	return l
}

// Regression is one exceeded limit (or a benchmark that vanished from the
// new snapshot, reported with Metric "missing").
type Regression struct {
	Name   string
	Metric string // "ns/op", "B/op", "allocs/op", or "missing"
	Old    float64
	New    float64
	Ratio  float64
	Limit  float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but missing from new snapshot", r.Name)
	}
	return fmt.Sprintf("%s %s: %.0f -> %.0f (%.2fx > limit %.2fx)",
		r.Name, r.Metric, r.Old, r.New, r.Ratio, r.Limit)
}

// Diff compares cur against the old baseline under the thresholds, writes a
// per-benchmark report to w, and returns every regression found. Benchmarks
// only in cur are reported as new and never regress; benchmarks only in old
// regress with Metric "missing", so a gate cannot pass by deleting its
// benchmark.
//
// Results are paired by name and GOMAXPROCS. A baseline benchmark that cur
// measured only at a different GOMAXPROCS is an error, not a comparison:
// per-worker scratch makes allocs/op grow with procs, so such a pair would
// report the machine's core count as a regression (or hide a real one).
func Diff(w io.Writer, old, cur *Snapshot, th Thresholds) ([]Regression, error) {
	curIndex := make(map[benchKey]Benchmark, len(cur.Benchmarks))
	curProcs := make(map[string][]int, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curIndex[b.key()] = b
		curProcs[b.Name] = append(curProcs[b.Name], b.gomaxprocs())
	}
	var mismatched []string
	for _, o := range old.Benchmarks {
		if _, ok := curIndex[o.key()]; !ok && len(curProcs[o.Name]) > 0 {
			mismatched = append(mismatched, fmt.Sprintf("%s (baseline GOMAXPROCS=%d, new %v)",
				o.Name, o.gomaxprocs(), curProcs[o.Name]))
		}
	}
	if len(mismatched) > 0 {
		return nil, fmt.Errorf("refusing to compare benchmarks measured at different GOMAXPROCS (rerun with -cpu=N): %s",
			strings.Join(mismatched, "; "))
	}
	var regs []Regression
	fmt.Fprintf(w, "benchmark diff: %s -> %s\n", old.Date, cur.Date)
	fmt.Fprintf(w, "%-44s %-10s %14s %14s %8s %8s  %s\n",
		"name", "metric", "old", "new", "ratio", "limit", "verdict")
	matched := 0
	for _, o := range old.Benchmarks {
		b, ok := curIndex[o.key()]
		if !ok {
			regs = append(regs, Regression{Name: o.label(), Metric: "missing"})
			fmt.Fprintf(w, "%-44s %-10s %14s %14s %8s %8s  REGRESS (missing)\n",
				o.label(), "-", "-", "-", "-", "-")
			continue
		}
		matched++
		lim := th.limitsFor(o.Name)
		for _, m := range []struct {
			metric   string
			old, new float64
			limit    float64
		}{
			{"ns/op", o.NsPerOp, b.NsPerOp, lim.NsRatio},
			{"B/op", o.BytesPerOp, b.BytesPerOp, lim.BytesRatio},
			{"allocs/op", o.AllocsPerOp, b.AllocsPerOp, lim.AllocsRatio},
		} {
			if m.limit == 0 {
				continue
			}
			r, verdict := 0.0, "ok"
			switch {
			case m.old == 0 && m.new == 0:
				// Metric not reported on either side (e.g. no -benchmem).
				continue
			case m.old == 0:
				r, verdict = 0, "ok (no baseline)"
			default:
				r = m.new / m.old
				if r > m.limit {
					verdict = "REGRESS"
					regs = append(regs, Regression{
						Name: o.label(), Metric: m.metric,
						Old: m.old, New: m.new, Ratio: r, Limit: m.limit,
					})
				}
			}
			fmt.Fprintf(w, "%-44s %-10s %14.0f %14.0f %8.2f %8.2f  %s\n",
				o.label(), m.metric, m.old, m.new, r, m.limit, verdict)
		}
	}
	oldKeys := make(map[benchKey]bool, len(old.Benchmarks))
	for _, o := range old.Benchmarks {
		oldKeys[o.key()] = true
	}
	for _, b := range cur.Benchmarks {
		if !oldKeys[b.key()] {
			fmt.Fprintf(w, "%-44s %-10s %14s %14s %8s %8s  new (no baseline)\n",
				b.label(), "-", "-", "-", "-", "-")
		}
	}
	if matched == 0 && len(regs) == 0 {
		return nil, fmt.Errorf("no common benchmarks between snapshots")
	}
	return regs, nil
}
