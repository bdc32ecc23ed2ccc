// Package benchjson parses `go test -bench` output into a stable JSON
// snapshot schema and renders benchstat-style comparisons between two
// snapshots. It exists so benchmark evidence can be committed alongside
// performance work and re-checked mechanically in CI.
package benchjson

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the result was taken at: the -N suffix go
	// test appends to the name, or 1 when there is none (go test prints no
	// suffix at GOMAXPROCS=1). A snapshot recorded before this field
	// existed decodes it as 0, which comparisons read as 1.
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is a dated set of benchmark results plus the run environment.
type Snapshot struct {
	Date       string      `json:"date"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gomaxprocs reports the GOMAXPROCS b was measured at. Snapshots recorded
// before Procs existed carry none; they read as 1, the setting the
// committed baselines of that time were measured at.
func (b Benchmark) gomaxprocs() int {
	if b.Procs <= 0 {
		return 1
	}
	return b.Procs
}

// label is the benchmark's name as go test prints it: with the -N suffix
// unless it ran at GOMAXPROCS=1.
func (b Benchmark) label() string {
	if p := b.gomaxprocs(); p != 1 {
		return fmt.Sprintf("%s-%d", b.Name, p)
	}
	return b.Name
}

// benchKey identifies one result across snapshots: the same benchmark
// measured at a different GOMAXPROCS is a different measurement.
type benchKey struct {
	name  string
	procs int
}

func (b Benchmark) key() benchKey { return benchKey{b.Name, b.gomaxprocs()} }

// Parse reads `go test -bench` output (one or more packages) into a
// Snapshot stamped with date. Lines that are not benchmark results or
// recognized headers are ignored, so the full `go test` output can be piped
// in unfiltered.
func Parse(output, date string) (*Snapshot, error) {
	snap := &Snapshot{Date: date}
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			if snap.Pkg == "" {
				snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		a, b := snap.Benchmarks[i], snap.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Procs < b.Procs
	})
	return snap, nil
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   	  1000	 1234 ns/op	 56 B/op	 7 allocs/op
//
// Reported metrics beyond the iteration count are positional value/unit
// pairs; only ns/op, B/op, and allocs/op are retained.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false, nil
	}
	name, procs := fields[0], 1
	// Split off the -GOMAXPROCS suffix: the name is the benchmark's
	// identity, procs is part of the measurement (allocs/op and ns/op
	// both depend on it), so Diff refuses to compare across procs.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // e.g. "BenchmarkFoo	--- FAIL"
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		}
	}
	return b, true, nil
}

// WriteComparison renders a benchstat-style note comparing two snapshots:
// one line per benchmark present in both at the same GOMAXPROCS, with old,
// new, and the ratio for ns/op and allocs/op. Ratios above 1.0 on ns/op are
// regressions.
func WriteComparison(w io.Writer, old, cur *Snapshot) error {
	index := make(map[benchKey]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		index[b.key()] = b
	}
	fmt.Fprintf(w, "benchmark comparison: %s -> %s\n", old.Date, cur.Date)
	fmt.Fprintf(w, "%-40s %14s %14s %8s %12s %12s %8s\n",
		"name", "ns/op(old)", "ns/op(new)", "ratio", "allocs(old)", "allocs(new)", "ratio")
	matched := 0
	for _, b := range cur.Benchmarks {
		o, ok := index[b.key()]
		if !ok {
			continue
		}
		matched++
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %8s %12.0f %12.0f %8s\n",
			b.label(), o.NsPerOp, b.NsPerOp, ratio(b.NsPerOp, o.NsPerOp),
			o.AllocsPerOp, b.AllocsPerOp, ratio(b.AllocsPerOp, o.AllocsPerOp))
	}
	if matched == 0 {
		return fmt.Errorf("no common benchmarks between snapshots")
	}
	return nil
}

func ratio(cur, old float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", cur/old)
}
