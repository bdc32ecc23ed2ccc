package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// minViolation keeps the least-ranked violation a worker pool reports.
// Workers read bound without locking, to prune work that could only rank
// higher; record runs only when a violation is found, so it simply locks.
type minViolation struct {
	mu   sync.Mutex
	rank atomic.Uint64 // math.MaxUint64 until the first record
	err  error
}

func newMinViolation() *minViolation {
	m := &minViolation{}
	m.rank.Store(math.MaxUint64)
	return m
}

// bound returns the least rank recorded so far, or math.MaxUint64.
func (m *minViolation) bound() uint64 { return m.rank.Load() }

// record keeps err if r ranks below every violation recorded so far.
func (m *minViolation) record(r uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r < m.rank.Load() {
		m.rank.Store(r)
		m.err = err
	}
}

// min returns the least-ranked violation and its rank; err is nil when
// none was recorded.
func (m *minViolation) min() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rank.Load(), m.err
}

// ExhaustiveStrongSoundnessParallelCtx is ExhaustiveStrongSoundness with
// the |alphabet|^n labeling space split into labeling-prefix shards
// (graph.EnumLabelingsShard) searched by a worker pool. It returns exactly
// the error the sequential search returns: the violation at the
// lexicographically first violating labeling, found via rank-based pruning —
// workers abandon any shard position whose labeling rank exceeds the best
// violation seen so far, and the minimum-rank violation is reported.
//
// shards <= 0 selects 4 per worker; workers <= 0 selects GOMAXPROCS. The
// search falls back to the sequential loop (counted as
// core.sweep.sequential_fallback) when only one worker or shard results, or
// when the labeling space is too large for 64-bit ranks.
//
// sc receives the per-worker sweep tallies (labelings checked, decoder memo
// hits, language memo hits), harvested after the worker barrier on both the
// parallel and the sequential path; shard completion advances the scope's
// progress phase, and pruned shard abandonments are counted. A zero Scope
// makes every instrument call a no-op; verdicts are never affected by
// instrumentation (enforced by the sanitizer's instrumentation probe).
//
// A nil ctx is the never-cancelled context (internal/cancel). When ctx
// fires, every worker abandons its current shard at the next labeling
// checkpoint, the cancel.Each pool drains through its barrier (no goroutine
// outlives the call — pinned by
// sanitize.ProbeExhaustiveStrongSoundnessParallelCancel), and the error
// wraps context.Cause(ctx). A cancelled search never reports a violation:
// its partial answer would depend on scheduling.
func ExhaustiveStrongSoundnessParallelCtx(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, alphabet []string, shards, workers int) error {
	n := inst.G.N()
	shards, workers = cancel.ResolveShardsWorkers(shards, workers)
	if workers == 1 || shards == 1 || !graph.LabelingRankFits(n, len(alphabet)) {
		sc.Counter("core.sweep.sequential_fallback").Inc()
		return exhaustiveSequential(ctx, sc, d, lang, inst, alphabet)
	}

	span := sc.Span(sc.Label("core.exhaustive"))
	span.SetAttr("shards", fmt.Sprint(shards))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("exhaustive"), int64(shards))
	defer sc.Prog().EndPhase()
	if sc.EventsEnabled() {
		sc.EmitSpanEvent(span, obs.LevelInfo, "core.sweep.start",
			obs.Fi("shards", int64(shards)), obs.Fi("workers", int64(workers)))
	}
	shardsDone := sc.Counter("core.sweep.shards.done")
	pruned := sc.Counter("core.sweep.shards.pruned")

	viol := newMinViolation()
	// Each worker owns a sweep, built on its first claim: templates and
	// verdict memos are per-worker, so workers never contend on them.
	// Cancellation checkpoints sit at shard claims and at every labeling.
	sweeps := make([]*labelSweep, workers)
	cerr := cancel.Each(ctx, "exhaustive soundness sweep", shards, workers, func(w, s int, stop *atomic.Bool) {
		sweep := sweeps[w]
		if sweep == nil {
			var serr error
			if sweep, serr = newLabelSweep(d, lang, inst, alphabet); serr != nil {
				viol.record(0, fmt.Errorf("extracting views: %w", serr))
				stop.Store(true)
				return
			}
			sweeps[w] = sweep
		}
		graph.EnumLabelingsShard(n, len(alphabet), s, shards, func(idx []int) bool {
			if stop.Load() {
				return false
			}
			r := graph.LabelingRank(idx, len(alphabet))
			// Ranks increase within a shard, so everything past the
			// best violation is prunable: any violation there would
			// rank higher and lose to the recorded one anyway.
			if r >= viol.bound() {
				pruned.Inc()
				return false
			}
			if err := sweep.check(idx); err != nil {
				viol.record(r, err)
				return false
			}
			return true
		})
		shardsDone.Inc()
		sc.Prog().Add(1)
	})
	for _, sweep := range sweeps {
		sweep.harvest(sc)
	}
	if cerr != nil {
		sc.Counter("core.sweep.cancelled").Inc()
		if sc.EventsEnabled() {
			sc.EmitSpanEvent(span, obs.LevelWarn, "core.sweep.cancelled",
				obs.Fi("shards", int64(shards)))
		}
		return cerr
	}

	r, err := viol.min()
	if err == nil {
		if sc.EventsEnabled() {
			sc.EmitSpanEvent(span, obs.LevelInfo, "core.sweep.done",
				obs.Fi("violations", 0))
		}
		return nil
	}
	sc.Counter("core.sweep.violations").Inc()
	if sc.EventsEnabled() {
		// Rank only: it identifies the violating labeling without revealing
		// any certificate content (hiding contract). The full witness stays
		// in the returned error, which never reaches an obs sink.
		sc.EmitSpanEvent(span, obs.LevelWarn, "core.sweep.violation",
			obs.F("rank", fmt.Sprint(r)))
	}
	return err
}

// FuzzStrongSoundness checks strong soundness of d against trials random
// labelings of inst, with labels drawn by gen (which receives the node and
// the rng), on a pool of workers (<= 0 selects GOMAXPROCS). The labelings
// are drawn from rng up front in trial order, so the random stream does not
// depend on workers, and the violation at the lowest trial index is
// reported: the result is the same at every worker count, and matches the
// naive trial-by-trial CheckStrongSoundness replay (sweep_test.go). The
// rng is always advanced past every trial, violation or not.
//
// Trials advance sc's progress phase and count into
// core.fuzz.trials.checked; the per-worker sweep tallies are harvested into
// sc after the worker barrier. A zero Scope makes every instrument call a
// no-op.
func FuzzStrongSoundness(sc obs.Scope, d Decoder, lang Language, inst Instance, trials int, rng *rand.Rand, gen func(node int, rng *rand.Rand) string, workers int) error {
	n := inst.G.N()
	_, workers = cancel.ResolveShardsWorkers(trials, workers)
	span := sc.Span(sc.Label("core.fuzz"))
	span.SetAttr("trials", fmt.Sprint(trials))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("fuzz"), int64(trials))
	defer sc.Prog().EndPhase()
	trialsChecked := sc.Counter("core.fuzz.trials.checked")

	drawn := make([][]string, trials)
	for t := range drawn {
		labels := make([]string, n)
		for v := range labels {
			labels[v] = gen(v, rng)
		}
		drawn[t] = labels
	}

	viol := newMinViolation()
	sweeps := make([]*labelSweep, workers)
	// A nil ctx never fires, so Each can only return nil here.
	_ = cancel.Each(nil, "fuzz soundness sweep", trials, workers, func(w, t int, stop *atomic.Bool) {
		// Trials are claimed in increasing order, so once t passes the
		// best violation every later claim does too.
		if uint64(t) >= viol.bound() {
			stop.Store(true)
			return
		}
		var err error
		if sweeps[w] == nil {
			sweeps[w], err = newLabelSweep(d, lang, inst, nil)
			if err != nil {
				err = fmt.Errorf("extracting views: %w", err)
			}
		}
		if err == nil {
			err = sweeps[w].checkLabels(drawn[t])
		}
		trialsChecked.Inc()
		sc.Prog().Add(1)
		if err != nil {
			viol.record(uint64(t), err)
		}
	})
	for _, sweep := range sweeps {
		sweep.harvest(sc)
	}

	t, err := viol.min()
	if err == nil {
		return nil
	}
	sc.Counter("core.fuzz.violations").Inc()
	return fmt.Errorf("trial %d: %w", t, err)
}
