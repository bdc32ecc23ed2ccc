package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is a fixed cycle of ops. op runs op i of the cycle and checks its
// output; a nil tracer means the untraced path. Every phase runs whole
// cycles, so the mix behind each percentile is the same in every run.
type workload interface {
	cycle() int
	op(ctx context.Context, i int, tr *tracer) error
	// layers turns the traced phase's totals into per-layer metrics.
	layers(tr *tracer, untraced *phase, out map[string]float64)
}

// phase is one closed-loop measurement: one client, each op issued only
// after the previous one returned.
type phase struct {
	opMS     []float64 // one sample per op, in issue order
	elapsed  time.Duration
	failed   int
	cpu      time.Duration // process user+sys CPU
	alloc    uint64        // runtime.MemStats.TotalAlloc delta
	gcCycles uint32
	gcPause  time.Duration
}

func (p *phase) ops() int { return len(p.opMS) }

// maxErrorLines bounds the per-phase failure messages written to stderr.
const maxErrorLines = 5

// measure runs whole cycles of w until budget is spent, stopping at the cycle
// boundary nearest to the budget (at least one cycle).
func measure(ctx context.Context, w workload, budget time.Duration, tr *tracer) phase {
	var p phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	for {
		cycleStart := time.Now()
		for i := 0; i < w.cycle(); i++ {
			t0 := time.Now()
			err := w.op(ctx, i, tr)
			p.opMS = append(p.opMS, msSince(t0))
			if err != nil {
				if p.failed < maxErrorLines {
					fmt.Fprintf(os.Stderr, "lcpbench: op %d: %v\n", i, err)
				}
				p.failed++
			}
		}
		lastCycle := time.Since(cycleStart)
		if time.Since(start)+lastCycle/2 >= budget {
			break
		}
	}
	p.elapsed = time.Since(start)
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return p
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns ru_maxrss (KiB on Linux) in MB of 2^20 bytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mb converts bytes to MB of 2^20 bytes.
func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
