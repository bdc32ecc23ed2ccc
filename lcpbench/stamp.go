package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"hidinglcp/internal/obs"
)

// stamp records what a result depends on besides the code: allocation
// counts and timings scale with the core count and GOMAXPROCS (per-worker
// scratch and shards), and the inputs with the seed.
type stamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func newStamp(seed int64) stamp {
	rev, dirty := obs.GitRevision()
	if dirty {
		rev += "-dirty"
	}
	return stamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Seed:       seed,
		Commit:     rev,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d commit=%s",
		s.Nproc, s.GOMAXPROCS, s.Go, s.CPU, s.Seed, s.Commit)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// comparable reports why two results may not be compared, or "" when they
// may: a pair from different core counts, GOMAXPROCS, seeds or workloads
// would diff silently otherwise.
func comparable(a, b *result) string {
	switch {
	case a.Workload != b.Workload:
		return fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return "traced vs untraced run"
	case a.Env.Nproc != b.Env.Nproc:
		return fmt.Sprintf("nproc %d vs %d", a.Env.Nproc, b.Env.Nproc)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.Seed != b.Env.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Env.Seed, b.Env.Seed)
	}
	return ""
}

// compareMain prints every metric of two --out results side by side, and
// refuses pairs that comparable rejects. Exit codes: 0 compared, 1 refused,
// 2 usage or read error.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: lcpbench compare base.json new.json")
		return 2
	}
	var rs [2]*result
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lcpbench compare: %v\n", err)
			return 2
		}
		rs[i] = &result{}
		if err := json.Unmarshal(data, rs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "lcpbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if why := comparable(rs[0], rs[1]); why != "" {
		fmt.Fprintf(os.Stderr, "lcpbench compare: refusing to compare: %s\n", why)
		return 1
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for name := range rs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %14s %14s %9s  %s\n", "metric", "base", "new", "change", "unit")
	for _, name := range names {
		a := rs[0].Metrics[name]
		b, ok := rs[1].Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14.6g %14s %9s  %s\n", name, a.Value, "missing", "", a.Unit)
			continue
		}
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value/a.Value-1))
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %9s  %s\n", name, a.Value, b.Value, change, a.Unit)
	}
	return 0
}
