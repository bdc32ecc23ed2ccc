package nbhd

import (
	"context"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/core"
	"hidinglcp/internal/obs"
)

// ShardedEnumerator describes a labeled-instance space that can be
// deterministically partitioned into disjoint sub-enumerators, so that
// Build can feed independent workers without a single producer goroutine
// on the hot path. Every enumerator constructor of this package returns
// one.
//
// The contract, pinned by the property tests in shard_test.go:
//
//   - Sequential() enumerates the whole space in the family's canonical
//     order.
//   - Shards(k) splits the space into k enumerators. Every instance of
//     Sequential() is produced by exactly one shard (no duplicates, no
//     omissions), and each shard preserves the relative sequential order.
//   - k <= 1 yields the sequential enumeration as a single shard.
//
// Because the partition is deterministic and results merge through
// order-insensitive set union (see Build), every consumer is bit-identical
// to its sequential counterpart at any shard/worker count.
type ShardedEnumerator interface {
	Sequential() Enumerator
	Shards(k int) []Enumerator
}

// shardFunc is the concrete ShardedEnumerator: f(i, k) is the i-th of k
// sub-enumerators, and f(0, 1) is the canonical sequential order.
type shardFunc func(i, k int) Enumerator

func (f shardFunc) Sequential() Enumerator { return f(0, 1) }

func (f shardFunc) Shards(k int) []Enumerator {
	if k <= 1 {
		return []Enumerator{f(0, 1)}
	}
	out := make([]Enumerator, k)
	for i := range out {
		out[i] = f(i, k)
	}
	return out
}

// subList returns every k-th element of xs starting at i — the index-residue
// slice used to shard finite instance lists. k <= 1 is the whole list.
func subList[T any](xs []T, i, k int) []T {
	if k <= 1 {
		return xs
	}
	var out []T
	for j := i; j < len(xs); j += k {
		out = append(out, xs[j])
	}
	return out
}

// forEachShard drives the shards of se through a pool of workers. Workers
// claim unstarted shards from a shared counter (work stealing), so fn must
// be safe for concurrent calls from different worker indices; calls with
// the same worker index are sequential. Returning false from fn stops the
// whole drive early. shards <= 0 selects 4 per worker; workers <= 0 selects
// GOMAXPROCS. When several shards fail, the error of the lowest-numbered
// failing shard is reported, keeping the result independent of scheduling.
//
// sc counts completed and stolen shards (a steal is any claim beyond a
// worker's first), advances the scope's progress phase by one per finished
// shard, and emits a per-shard completion event when an event sink is
// attached.
// A nil ctx is the never-cancelled context (internal/cancel); when ctx
// fires, the drive stops at the next per-instance checkpoint — the same
// stop flag every worker already polls between instances — and the error
// wraps context.Cause(ctx). The engine layer re-tags such errors as
// engine.ErrCancelled.
func forEachShard(ctx context.Context, sc obs.Scope, se ShardedEnumerator, shards, workers int, fn func(worker int, l core.Labeled) bool) error {
	shards, workers = cancel.ResolveShardsWorkers(shards, workers)
	enums := se.Shards(shards)
	shardsDone := sc.Counter("nbhd.shards.done")
	shardsStolen := sc.Counter("nbhd.shards.stolen")
	sc.Gauge("nbhd.shards.total").Set(int64(len(enums)))
	sc.Gauge("nbhd.workers").Set(int64(workers))
	errs := make([]error, len(enums))
	claimed := make([]int, workers)
	// Cancellation rides the pool's stop flag: every worker observes it at
	// its next instance, the same checkpoint early-stopping fn returns use.
	cerr := cancel.Each(ctx, "sharded enumeration", len(enums), workers, func(w, i int, stop *atomic.Bool) {
		if claimed[w] > 0 {
			shardsStolen.Inc()
		}
		claimed[w]++
		err := enums[i](func(l core.Labeled) bool {
			if stop.Load() {
				return false
			}
			if !fn(w, l) {
				stop.Store(true)
				return false
			}
			return true
		})
		if err != nil {
			errs[i] = err
			stop.Store(true)
			return
		}
		shardsDone.Inc()
		sc.Prog().Add(1)
		if sc.EventsEnabled() {
			// Per-shard, not per-instance: the event log sees O(shards)
			// appends for a build, never the hot enumeration path.
			sc.EmitEvent(obs.LevelDebug, "nbhd.shard.done",
				obs.Fi("shard", int64(i)),
				obs.Fi("worker", int64(w)),
				obs.Fi("stolen", int64(claimed[w]-1)))
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cerr != nil {
		sc.Counter("nbhd.shards.cancelled").Inc()
		if sc.EventsEnabled() {
			sc.EmitEvent(obs.LevelWarn, "nbhd.enumeration.cancelled",
				obs.Fi("shards", int64(len(enums))))
		}
		return cerr
	}
	return nil
}

// CountInstances drains the sharded enumerator through the work-stealing
// drive and returns the number of instances produced — the raw
// enumeration-throughput probe used by BenchmarkShardedEnumeration.
func CountInstances(se ShardedEnumerator, shards, workers int) (int, error) {
	var n atomic.Int64
	err := forEachShard(nil, obs.Scope{}, se, shards, workers, func(int, core.Labeled) bool {
		n.Add(1)
		return true
	})
	return int(n.Load()), err
}
