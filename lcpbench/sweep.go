package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// sweepGraphsPerScheme is how many graphs one cycle sweeps per scheme.
const sweepGraphsPerScheme = 16

// sweepEdgeProb is the G(n, p) edge probability of the swept graphs.
const sweepEdgeProb = 0.4

// sweepPoolSeed fixes which graphs are swept. A sweep's cost depends on the
// graph's structure and is heavy-tailed (the same scheme and n take 40 ms to
// 770 ms), so graphs drawn afresh per seed would move the percentiles more
// than any bound allows. Relabeling the nodes does too: it moves the nodes
// the labeling-prefix shards split on, and with them how much memo work the
// workers repeat. The seed instead permutes each sweep's alphabet, which
// changes the order the labelings are enumerated and sharded in but not the
// amount of work.
const sweepPoolSeed = 1

// sweepCase is one exhaustive strong-soundness sweep: every labeling of inst
// over alpha must leave a 2- (or k-) colorable accepting subgraph.
type sweepCase struct {
	scheme string
	d      core.Decoder
	lang   core.Language
	inst   core.Instance
	alpha  []string
}

// sweep is the strong-soundness workload: one op is one
// core.ExhaustiveStrongSoundnessParallelCtx call at default shards, and it
// must report no violation (Lemmas 4.1/4.2; E15 for k = 3). Graphs outside
// the promise are kept on purpose: that is where strong soundness is not
// trivial.
type sweep struct {
	cases   []sweepCase
	workers int // 0 = GOMAXPROCS, the library default
}

func newSweep(seed int64) *sweep {
	pool := rand.New(rand.NewSource(sweepPoolSeed))
	rng := rand.New(rand.NewSource(seed))
	specs := []struct {
		s     core.Scheme
		n     int
		alpha []string
	}{
		{decoders.DegreeOne(), 9, decoders.DegOneAlphabet()},
		{decoders.DegreeOneK(3), 8, decoders.DegOneKAlphabet(3)},
		{decoders.EvenCycle(), 5, decoders.EvenCycleAlphabet()},
	}
	s := &sweep{}
	for j := 0; j < sweepGraphsPerScheme; j++ {
		for _, sp := range specs {
			g := graph.ConnectedGNP(sp.n, sweepEdgeProb, pool)
			alpha := make([]string, len(sp.alpha))
			for i, k := range rng.Perm(len(sp.alpha)) {
				alpha[i] = sp.alpha[k]
			}
			s.cases = append(s.cases, sweepCase{
				scheme: sp.s.Name,
				d:      sp.s.Decoder,
				lang:   sp.s.Promise.Lang,
				inst:   core.NewAnonymousInstance(g),
				alpha:  alpha,
			})
		}
	}
	return s
}

func (s *sweep) cycle() int { return len(s.cases) }

func (s *sweep) setWorkers(n int) { s.workers = n }

func (s *sweep) op(ctx context.Context, i int, tr *tracer) error {
	c := s.cases[i]
	if tr == nil {
		if err := core.ExhaustiveStrongSoundnessParallelCtx(ctx, obs.Scope{}, c.d, c.lang, c.inst, c.alpha, 0, s.workers); err != nil {
			return fmt.Errorf("%s sweep %d: %w", c.scheme, i, err)
		}
		return nil
	}
	sc := obs.NewScope()
	td := &timedDecoder{Decoder: c.d}
	var lt langTimer
	start := time.Now()
	err := core.ExhaustiveStrongSoundnessParallelCtx(ctx, sc, td, lt.wrap(c.lang), c.inst, c.alpha, 0, s.workers)
	opMS := msSince(start)
	if err != nil {
		return fmt.Errorf("%s sweep %d (traced): %w", c.scheme, i, err)
	}

	cnt := func(name string) int64 { return sc.Counter(name).Value() }
	space := labelingSpace(len(c.alpha), c.inst.G.N())
	if got := cnt("core.sweep.labelings.checked"); uint64(got) != space {
		return fmt.Errorf("%s sweep %d: %d labelings checked, want |Σ|^n = %d", c.scheme, i, got, space)
	}
	if got, want := td.calls.Load(), cnt("core.sweep.decide.inner"); got != want {
		return fmt.Errorf("%s sweep %d: %d decoder calls, want core.sweep.decide.inner = %d", c.scheme, i, got, want)
	}
	if got, want := lt.evals.Load(), cnt("core.sweep.lang.evals"); got != want {
		return fmt.Errorf("%s sweep %d: %d language evaluations, want core.sweep.lang.evals = %d", c.scheme, i, got, want)
	}

	decideMS, langMS := nsToMS(td.ns.Load()), nsToMS(lt.ns.Load())
	// Child calls run on every worker at once; spread them over the workers
	// to get the wall-clock share they take.
	tr.sample("core.sweep.self_ms", opMS-(decideMS+langMS)/float64(s.effectiveWorkers()))
	tr.sample("core.lang.ms", langMS)
	tr.sample("decoders.decide.ms", decideMS)
	tr.add("ops", 1)
	tr.add("sweep.ms", opMS)
	tr.add("labelings", float64(space))
	tr.add("decide.calls", float64(cnt("core.sweep.decide.calls")))
	tr.add("decide.memo_hits", float64(cnt("core.sweep.decide.memo_hits")))
	tr.add("decide.inner", float64(cnt("core.sweep.decide.inner")))
	tr.add("shards.pruned", float64(cnt("core.sweep.shards.pruned")))
	tr.add("lang.evals", float64(lt.evals.Load()))
	tr.add("decoder.calls", float64(td.calls.Load()))
	tr.add("decoder.ns", float64(td.ns.Load()))
	return nil
}

// effectiveWorkers mirrors the library's worker default.
func (s *sweep) effectiveWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *sweep) layers(tr *tracer, _ *phase, out map[string]float64) {
	ops := tr.totals["ops"]
	if ops == 0 {
		return
	}
	out["core.sweep.labelings_per_s"] = tr.totals["labelings"] / (tr.totals["sweep.ms"] / 1000)
	out["core.sweep.decide.calls"] = tr.totals["decide.calls"] / ops
	out["core.sweep.decide.inner"] = tr.totals["decide.inner"] / ops
	out["core.sweep.decide.memo_hit_ratio"] = tr.ratio("decide.memo_hits", "decide.calls")
	out["core.sweep.shards.pruned"] = tr.totals["shards.pruned"] / ops
	out["core.lang.evals"] = tr.totals["lang.evals"] / ops
	out["decoders.decide.calls"] = tr.totals["decoder.calls"] / ops
	out["decoders.decide.ns_per_call"] = tr.ratio("decoder.ns", "decoder.calls")
}

// labelingSpace returns a^n.
func labelingSpace(a, n int) uint64 {
	p := uint64(1)
	for i := 0; i < n; i++ {
		p *= uint64(a)
	}
	return p
}
