package cancel_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/sanitize"
)

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine 18 [running]:"), or returns 0 when the header does not parse.
func goroutineID() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _ := strconv.Atoi(string(bytes.Fields(buf)[1]))
	return id
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]atomic.Int32, n)
			var bad atomic.Int32
			err := cancel.Each(nil, "test", n, workers, func(w, i int, _ *atomic.Bool) {
				if w < 0 || (workers > 0 && w >= workers) || w >= n {
					bad.Add(1)
				}
				counts[i].Add(1)
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			if bad.Load() != 0 {
				t.Errorf("workers=%d n=%d: %d calls with an out-of-range worker index", workers, n, bad.Load())
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestEachWorkerCallsNeverOverlap(t *testing.T) {
	const workers = 7
	busy := make([]atomic.Bool, workers)
	var overlaps atomic.Int32
	err := cancel.Each(nil, "test", 500, workers, func(w, i int, _ *atomic.Bool) {
		if !busy[w].CompareAndSwap(false, true) {
			overlaps.Add(1)
			return
		}
		runtime.Gosched()
		busy[w].Store(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlaps.Load() != 0 {
		t.Errorf("%d calls overlapped another call with the same worker index", overlaps.Load())
	}
}

func TestEachOneWorkerRunsOnCaller(t *testing.T) {
	caller := goroutineID()
	if caller == 0 {
		t.Fatal("could not parse the calling goroutine's id")
	}
	// workers = 1, and workers = 5 capped at the single index.
	for _, c := range []struct{ n, workers int }{{10, 1}, {1, 5}} {
		var elsewhere atomic.Int32
		err := cancel.Each(nil, "test", c.n, c.workers, func(_, _ int, _ *atomic.Bool) {
			if goroutineID() != caller {
				elsewhere.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if elsewhere.Load() != 0 {
			t.Errorf("n=%d workers=%d: %d calls ran off the calling goroutine", c.n, c.workers, elsewhere.Load())
		}
	}
}

func TestEachPreCancelledClaimsNothing(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancelFn := context.WithCancelCause(context.Background())
	cancelFn(cause)
	for _, workers := range []int{1, 3} {
		var calls atomic.Int32
		err := cancel.Each(ctx, "sweep", 50, workers, func(_, _ int, _ *atomic.Bool) { calls.Add(1) })
		if calls.Load() != 0 {
			t.Errorf("workers=%d: %d indices ran under a pre-cancelled context", workers, calls.Load())
		}
		if !errors.Is(err, cause) {
			t.Errorf("workers=%d: err = %v, want it to wrap the cancel cause", workers, err)
		}
	}
}

func TestEachCancelMidFlight(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	var calls atomic.Int32
	err := cancel.Each(ctx, "sweep", 1000, 1, func(_, i int, stop *atomic.Bool) {
		calls.Add(1)
		if i == 9 {
			cancelFn()
			// The watcher arms stop asynchronously; wait for it so the
			// next claim deterministically observes it.
			for !stop.Load() {
				runtime.Gosched()
			}
		}
	})
	if calls.Load() != 10 {
		t.Errorf("ran %d indices, want 10 (claims stop once ctx fires)", calls.Load())
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestEachBodyStopHaltsClaims(t *testing.T) {
	var calls atomic.Int32
	err := cancel.Each(nil, "test", 100, 1, func(_, i int, stop *atomic.Bool) {
		calls.Add(1)
		if i == 10 {
			stop.Store(true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 11 {
		t.Errorf("one worker ran %d indices, want 11 (0..10, then stop)", calls.Load())
	}

	// Several workers: indices claimed before the flag was seen still
	// finish, but nothing near the end of the range is ever claimed.
	var maxIndex atomic.Int32
	err = cancel.Each(nil, "test", 100000, 4, func(_, i int, stop *atomic.Bool) {
		for {
			m := maxIndex.Load()
			if int32(i) <= m || maxIndex.CompareAndSwap(m, int32(i)) {
				break
			}
		}
		if i == 10 {
			stop.Store(true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxIndex.Load(); m >= 100000-1 {
		t.Errorf("highest index run = %d: stop did not halt the claims", m)
	}
}

func TestEachLeavesNoGoroutines(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	if leak := sanitize.LeakCheck(func() {
		_ = cancel.Each(ctx, "test", 64, 4, func(_, _ int, _ *atomic.Bool) { runtime.Gosched() })
	}); leak != nil {
		t.Errorf("live context: %v", leak)
	}
	if leak := sanitize.LeakCheck(func() {
		_ = cancel.Each(ctx, "test", 64, 4, func(_, i int, _ *atomic.Bool) {
			if i == 5 {
				cancelFn()
			}
		})
	}); leak != nil {
		t.Errorf("cancelled mid-flight: %v", leak)
	}
}

func TestResolveShardsWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ shards, workers, wantShards, wantWorkers int }{
		{0, 0, 4 * procs, procs},
		{0, 3, 12, 3},
		{5, 0, 5, min(procs, 5)},
		{2, 8, 2, 2},
		{16, 2, 16, 2},
	} {
		s, w := cancel.ResolveShardsWorkers(c.shards, c.workers)
		if s != c.wantShards || w != c.wantWorkers {
			t.Errorf("ResolveShardsWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				c.shards, c.workers, s, w, c.wantShards, c.wantWorkers)
		}
	}
}
