package benchjson

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hidinglcp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE3DegreeOne      	       2	 102806824 ns/op	71563188 B/op	 1738803 allocs/op
BenchmarkViewExtract-8 	     500	      4687 ns/op	    3548 B/op	      16 allocs/op
BenchmarkViewKey/with-ids   	     200	      6437 ns/op	    4800 B/op	      30 allocs/op
BenchmarkNoMem 	    1000	       123 ns/op
PASS
ok  	hidinglcp	1.288s
`

func TestParse(t *testing.T) {
	snap, err := Parse(sample, "2026-08-06")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.Pkg != "hidinglcp" {
		t.Fatalf("bad header: %+v", snap)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	e3 := byName["BenchmarkE3DegreeOne"]
	if e3.Iterations != 2 || e3.NsPerOp != 102806824 || e3.AllocsPerOp != 1738803 {
		t.Fatalf("E3 parsed wrong: %+v", e3)
	}
	// The -8 GOMAXPROCS suffix must be split off the name into Procs; no
	// suffix means GOMAXPROCS=1.
	if ve, ok := byName["BenchmarkViewExtract"]; !ok || ve.Procs != 8 {
		t.Fatalf("GOMAXPROCS suffix not split into procs: %v", byName)
	}
	if e3.Procs != 1 {
		t.Fatalf("unsuffixed benchmark has procs %d, want 1", e3.Procs)
	}
	if sub, ok := byName["BenchmarkViewKey/with-ids"]; !ok || sub.NsPerOp != 6437 {
		t.Fatalf("sub-benchmark parsed wrong: %+v", sub)
	}
	if nm := byName["BenchmarkNoMem"]; nm.NsPerOp != 123 || nm.AllocsPerOp != 0 {
		t.Fatalf("plain bench parsed wrong: %+v", nm)
	}
	// Deterministic order.
	for i := 1; i < len(snap.Benchmarks); i++ {
		if snap.Benchmarks[i-1].Name > snap.Benchmarks[i].Name {
			t.Fatal("benchmarks not sorted by name")
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse("PASS\nok x 0.1s\n", "d"); err == nil {
		t.Fatal("expected error on output with no benchmarks")
	}
}

func TestWriteComparison(t *testing.T) {
	old, err := Parse(sample, "old")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Parse(strings.ReplaceAll(sample, "102806824", "51403412"), "new")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteComparison(&sb, old, cur); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "BenchmarkE3DegreeOne") || !strings.Contains(out, "0.50x") {
		t.Fatalf("comparison missing ratio line:\n%s", out)
	}
	if !strings.Contains(out, "old -> new") {
		t.Fatalf("comparison missing header:\n%s", out)
	}
}

func TestWriteComparisonDisjoint(t *testing.T) {
	old, _ := Parse("BenchmarkA 1 5 ns/op\n", "o")
	cur, _ := Parse("BenchmarkB 1 5 ns/op\n", "n")
	var sb strings.Builder
	if err := WriteComparison(&sb, old, cur); err == nil {
		t.Fatal("expected error for disjoint snapshots")
	}
}
