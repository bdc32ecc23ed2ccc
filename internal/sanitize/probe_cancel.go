// Cancellation probes: the dynamic complement of the ctxflow analyzer.
// The context-threaded pipelines (nbhd.Build,
// core.ExhaustiveStrongSoundnessParallelCtx) promise that when the caller's
// context fires mid-run, every worker exits at its next shard/instance
// checkpoint, the work-stealing queue stops handing out claims, no partial
// result is published, and the returned error carries the context's cause.
// Each probe forces the cancellation to land strictly mid-pipeline — the
// context is cancelled only once the decoder is provably deciding — then
// checks all four promises plus goroutine hygiene via LeakCheck.
package sanitize

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// gateDecoder closes started on its first Decide call and then blocks
// every Decide until release is closed. A probe cancels the context
// between the two, so the pipeline is guaranteed to be mid-decode — not
// before its first claim, not after its last — when the cancellation
// lands.
type gateDecoder struct {
	inner   core.Decoder
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGateDecoder(inner core.Decoder) *gateDecoder {
	return &gateDecoder{
		inner:   inner,
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (d *gateDecoder) Rounds() int     { return d.inner.Rounds() }
func (d *gateDecoder) Anonymous() bool { return d.inner.Anonymous() }

func (d *gateDecoder) Decide(mu *view.View) bool {
	//lint:ignore decoderpurity probe scaffolding: signals run-start, then delegates the verdict unchanged
	d.once.Do(func() { close(d.started) })
	<-d.release
	return d.inner.Decide(mu)
}

// watcherGrace is how long cancelMidRun waits between firing the context
// and releasing the gated decoders: the pipeline's cancellation watcher (a
// goroutine blocked on ctx.Done) needs a scheduling slot to arm the abort
// flag, and releasing before it runs would let the workers sprint through
// a small search space and finish cleanly — a raced queue the probe exists
// to rule out.
const watcherGrace = 20 * time.Millisecond

// cancelMidRun runs pipeline against a context that a helper goroutine
// cancels as soon as gate reports its first decode, under the leak probe.
// The helper is joined before LeakCheck's snapshot, so it can never count
// as a leak itself. Returns the leak report, the pipeline's error, and
// whether the pipeline decoded at all (false means the cancellation was
// never exercised — a probe-setup failure, not a pipeline bug).
func cancelMidRun(gate *gateDecoder, pipeline func(ctx context.Context) error) (*LeakReport, error, bool) {
	var err error
	decided := true
	leak := LeakCheck(func() {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-gate.started
			stop()
			time.Sleep(watcherGrace)
			close(gate.release)
		}()
		err = pipeline(ctx)
		// If the pipeline returned without ever deciding, unblock the
		// canceller so it cannot deadlock the probe.
		gate.once.Do(func() {
			decided = false
			close(gate.started)
		})
		<-done
	})
	return leak, err, decided
}

// checkCancelVerdict asserts the error half of the cancellation contract.
func checkCancelVerdict(what string, err error, decided bool) error {
	switch {
	case !decided:
		return fmt.Errorf("%s finished before its first decode: cancellation never exercised (use a larger family)", what)
	case err == nil:
		return fmt.Errorf("cancelled %s returned a nil error", what)
	case !errors.Is(err, context.Canceled):
		return fmt.Errorf("cancelled %s returned %w, want context.Canceled in the chain", what, err)
	}
	return nil
}

// ProbeBuildShardedCancel cancels a sharded neighborhood-graph build
// mid-decode and verifies the cancellation contract: zero leaked
// goroutines, no partial graph published, context.Canceled in the error
// chain, the cancellation counted exactly once, and the work-stealing
// queue drained rather than raced to completion (with every worker exited
// the done counter is final, and it must fall short of the shard total —
// pending claims were abandoned at the checkpoint, not processed).
func ProbeBuildShardedCancel(d core.Decoder, se nbhd.ShardedEnumerator, shards, workers int) (*LeakReport, error) {
	gate := newGateDecoder(d)
	sc := obs.NewScope()
	var g *nbhd.NGraph
	leak, err, decided := cancelMidRun(gate, func(ctx context.Context) error {
		var buildErr error
		g, buildErr = nbhd.Build(ctx, sc, gate, se, shards, workers)
		return buildErr
	})
	if leak != nil {
		return leak, err
	}
	if verdictErr := checkCancelVerdict("build", err, decided); verdictErr != nil {
		return nil, verdictErr
	}
	if g != nil {
		return nil, fmt.Errorf("cancelled build published a partial graph (%d views)", g.Size())
	}
	if got := sc.Counter("nbhd.shards.cancelled").Value(); got != 1 {
		return nil, fmt.Errorf("nbhd.shards.cancelled = %d, want 1", got)
	}
	done := sc.Counter("nbhd.shards.done").Value()
	total := sc.Gauge("nbhd.shards.total").Value()
	if done >= total {
		return nil, fmt.Errorf("all %d shards completed despite mid-run cancellation: the queue raced instead of draining", total)
	}
	return nil, nil
}

// ProbeExhaustiveStrongSoundnessParallelCancel cancels the parallel
// soundness sweep mid-decode; same contract as ProbeBuildShardedCancel
// (the "no partial result" half is the sweep's own promise that a
// cancelled search never reports a violation — surfaced as the error
// carrying context.Canceled rather than a core.StrongSoundnessViolation).
func ProbeExhaustiveStrongSoundnessParallelCancel(d core.Decoder, lang core.Language, inst core.Instance, alphabet []string, shards, workers int) (*LeakReport, error) {
	gate := newGateDecoder(d)
	sc := obs.NewScope()
	leak, err, decided := cancelMidRun(gate, func(ctx context.Context) error {
		return core.ExhaustiveStrongSoundnessParallelCtx(ctx, sc, gate, lang, inst, alphabet, shards, workers)
	})
	if leak != nil {
		return leak, err
	}
	if verdictErr := checkCancelVerdict("soundness sweep", err, decided); verdictErr != nil {
		return nil, verdictErr
	}
	var violation *core.StrongSoundnessViolation
	if errors.As(err, &violation) {
		return nil, fmt.Errorf("cancelled sweep published a partial verdict: %v", err)
	}
	if got := sc.Counter("core.sweep.cancelled").Value(); got != 1 {
		return nil, fmt.Errorf("core.sweep.cancelled = %d, want 1", got)
	}
	if done := sc.Counter("core.sweep.shards.done").Value(); done >= int64(shards) {
		return nil, fmt.Errorf("all %d shards completed despite mid-run cancellation: the queue raced instead of draining", shards)
	}
	return nil, nil
}
