package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentScopeHammer drives counters, gauges, histograms, spans,
// events, and progress from many goroutines at once — the exact access
// pattern of the shard workers — and checks the totals. Run with -race
// (CI does) to certify the whole layer data-race-free.
func TestConcurrentScopeHammer(t *testing.T) {
	const workers = 8
	const perWorker = 2000

	prog := NewProgress(io.Discard, 10*time.Millisecond)
	defer prog.Close()
	sc := NewScope().WithTracer(NewTracer(256)).WithProgress(prog)
	prog.StartPhase("hammer", workers*perWorker)
	prog.SetExtra(func() string {
		return fmt.Sprintf("%d so far", sc.Counter("hammer.ops").Value())
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := sc.Span(fmt.Sprintf("worker-%d", w))
			for i := 0; i < perWorker; i++ {
				sc.Counter("hammer.ops").Inc()
				sc.Gauge("hammer.last").Set(int64(i))
				sc.Histogram("hammer.val").Observe(int64(i % 100))
				if i%100 == 0 {
					child := root.Child("batch")
					child.SetAttr("i", fmt.Sprint(i))
					child.End()
				}
				sc.Prog().Add(1)
			}
			root.End()
		}(w)
	}
	wg.Wait()
	prog.EndPhase()

	if got := sc.Counter("hammer.ops").Value(); got != workers*perWorker {
		t.Errorf("ops = %d, want %d", got, workers*perWorker)
	}
	if got := sc.Histogram("hammer.val").Count(); got != workers*perWorker {
		t.Errorf("observations = %d, want %d", got, workers*perWorker)
	}
	// Snapshot while another goroutine is still mutating.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		for i := 0; i < 1000; i++ {
			sc.Counter("hammer.ops").Inc()
		}
	}()
	for i := 0; i < 50; i++ {
		_ = sc.Registry().Snapshot()
		_ = sc.Tracer().Spans()
	}
	wg2.Wait()
}
