package cancel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// shardsPerWorker oversubscribes workers so that the work-stealing pool
// can smooth uneven shard costs: a worker finishing a cheap shard steals the
// next unclaimed one.
const shardsPerWorker = 4

// ResolveShardsWorkers applies the defaults every sharded driver shares:
// workers <= 0 selects GOMAXPROCS, shards <= 0 selects 4 per worker, and
// workers never exceed shards.
func ResolveShardsWorkers(shards, workers int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards <= 0 {
		shards = shardsPerWorker * workers
	}
	if workers > shards {
		workers = shards
	}
	return shards, workers
}

// Each is the one worker pool of the sharded pipelines. It runs body(w, i)
// for the indices 0..n-1, which workers claim in increasing order from one
// shared counter (work stealing); w is the claiming worker's index in
// [0, workers), and calls with the same w never overlap, so per-worker
// state indexed by w needs no locking. workers <= 0 selects GOMAXPROCS,
// and the pool never has more workers than indices; a single worker runs
// on the calling goroutine.
//
// stop is the pool's one stop flag: Watch arms it when ctx fires, and body
// may arm it to halt the pool early. It is checked before every claim, and
// bodies poll it at their own finer checkpoints. Claimed indices always
// finish: Each returns only after every worker has drained through the
// barrier, so no goroutine outlives the call. The result is Err(ctx, what):
// nil unless ctx fired, in which case the bodies' partial work must be
// discarded by the caller.
func Each(ctx context.Context, what string, n, workers int, body func(w, i int, stop *atomic.Bool)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var stop atomic.Bool
	release := Watch(ctx, &stop)
	defer release()
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || stop.Load() {
				return
			}
			body(w, i, &stop)
		}
	}
	if workers <= 1 {
		run(0)
		return Err(ctx, what)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	wg.Wait()
	return Err(ctx, what)
}
