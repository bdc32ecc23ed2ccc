package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
)

const (
	// chaosMinNodes and chaosMaxNodes bound the simulated networks.
	chaosMinNodes, chaosMaxNodes = 64, 512
	// chaosSizeStrata splits [chaosMinNodes, chaosMaxNodes] into equal
	// strata; each scheme gets one network at the middle of each stratum.
	// The sizes do not depend on the seed: the shatter prover's cost grows
	// faster than linearly in n and sets op_ms.p90.
	chaosSizeStrata = 16
)

// chaosCase is one distributed run. A zero plan is a fault-free run through
// sim.RunScheme; any other plan runs through sim.RunSchemeFaultsCtx.
type chaosCase struct {
	scheme core.Scheme
	inst   core.Instance
	plan   faults.Plan
	// fingerprint and crashes pin a faulty run: the replay fingerprint taken
	// in setup, and the number of injected crashes that fire.
	fingerprint uint64
	crashes     int
}

// chaos is the simulator workload: half of the ops run fault-free (the
// lcpcheck -distributed path), half under seeded drop/dup/delay/reorder/crash
// plans (the lcpcheck -faults path). Networks come from each scheme's
// promise class.
type chaos struct {
	cases []chaosCase
	// flip, when set, flips node 0's verdict before the check. Only the
	// canary tests set it.
	flip bool
}

// chaosNetwork draws an n-node (or nearly n-node) network from the
// promise class of the named scheme. Grid shapes follow the size stratum,
// not the seed: the shatter prover's cost depends on the shape, and every
// seed should get the same spread of shapes.
func chaosNetwork(scheme string, stratum, n int, rng *rand.Rand) (*graph.Graph, error) {
	switch scheme {
	case "even-cycle":
		return graph.Cycle(n &^ 1)
	case "degree-one":
		return graph.RandomTree(n, rng), nil
	case "shatter":
		rows := 2 + stratum%7
		return graph.Grid(rows, n/rows), nil
	case "watermelon":
		// k internally disjoint paths of equal parity between two poles;
		// a path of length L has L-1 internal nodes.
		k := 2 + rng.Intn(5)
		base := (n-2)/k + 1
		if base%2 != rng.Intn(2) {
			base++
		}
		lens := make([]int, k)
		for i := range lens {
			lens[i] = base + 2*rng.Intn(2)
		}
		return graph.Watermelon(lens)
	}
	return nil, fmt.Errorf("no network family for scheme %q", scheme)
}

// chaosPlan draws a fault plan with every fault kind but corruption.
func chaosPlan(n int, rng *rand.Rand) faults.Plan {
	p := faults.Plan{
		Seed:      rng.Int63(),
		Drop:      0.05 + 0.15*rng.Float64(),
		Duplicate: 0.2 * rng.Float64(),
		Delay:     0.2 * rng.Float64(),
		MaxDelay:  2,
		Reorder:   true,
		Crashes:   map[int]int{},
	}
	for c := 1 + rng.Intn(3); c > 0; c-- {
		p.Crashes[rng.Intn(n)] = 0
	}
	return p
}

func newChaos(ctx context.Context, seed int64) (*chaos, error) {
	rng := rand.New(rand.NewSource(seed))
	schemes := []core.Scheme{decoders.EvenCycle(), decoders.DegreeOne(), decoders.Shatter(), decoders.Watermelon()}
	c := &chaos{}
	width := (chaosMaxNodes - chaosMinNodes) / chaosSizeStrata
	for stratum := 0; stratum < chaosSizeStrata; stratum++ {
		for _, s := range schemes {
			n := chaosMinNodes + stratum*width + width/2
			g, err := chaosNetwork(s.Name, stratum, n, rng)
			if err != nil {
				return nil, err
			}
			if !s.Promise.InClass(g) {
				return nil, fmt.Errorf("%s: drawn %d-node network is outside the promise class", s.Name, g.N())
			}
			inst := core.NewInstance(g)
			if s.Decoder.Anonymous() {
				inst = core.NewAnonymousInstance(g)
			}
			free, err := faultFreeCase(s, inst)
			if err != nil {
				return nil, err
			}
			faulty, err := faultyCase(ctx, s, inst, chaosPlan(g.N(), rng))
			if err != nil {
				return nil, err
			}
			c.cases = append(c.cases, free, faulty)
		}
	}
	return c, nil
}

// faultFreeCase checks that the centralized core.Run accepts at every node,
// as completeness requires. A fault-free simulated run then matches it
// exactly when it too accepts everywhere.
func faultFreeCase(s core.Scheme, inst core.Instance) (chaosCase, error) {
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return chaosCase{}, fmt.Errorf("%s prover: %w", s.Name, err)
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return chaosCase{}, err
	}
	want, err := core.Run(s.Decoder, l)
	if err != nil {
		return chaosCase{}, err
	}
	for v, ok := range want {
		if !ok {
			return chaosCase{}, fmt.Errorf("%s: node %d rejects its honest certificate", s.Name, v)
		}
	}
	return chaosCase{scheme: s, inst: inst}, nil
}

// faultyCase takes the replay fingerprint of one faulty run.
func faultyCase(ctx context.Context, s core.Scheme, inst core.Instance, plan faults.Plan) (chaosCase, error) {
	fr, err := sim.RunSchemeFaultsCtx(ctx, obs.Scope{}, s, inst, plan)
	if err != nil {
		return chaosCase{}, fmt.Errorf("%s under %s: %w", s.Name, plan, err)
	}
	crashes := 0
	for _, round := range plan.Crashes {
		if round < s.Decoder.Rounds() {
			crashes++
		}
	}
	return chaosCase{scheme: s, inst: inst, plan: plan, fingerprint: fingerprint(fr), crashes: crashes}, nil
}

// fingerprint hashes everything a replay must reproduce: the verdicts, the
// communication volume and the fault counters.
func fingerprint(fr *sim.FaultReport) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, len(fr.Verdicts)+64)
	for _, v := range fr.Verdicts {
		buf = append(buf, byte(v))
	}
	f := fr.Faults
	for _, x := range []int{fr.Stats.Rounds, fr.Stats.Messages, fr.Stats.Records,
		f.Dropped, f.Duplicated, f.Delayed, f.Expired, f.Timeouts, len(f.Crashed)} {
		buf = binary.AppendVarint(buf, int64(x))
	}
	for _, v := range f.Crashed {
		buf = binary.AppendVarint(buf, int64(v))
	}
	h.Write(buf)
	return h.Sum64()
}

func (c *chaos) cycle() int { return len(c.cases) }

func (c *chaos) op(ctx context.Context, i int, tr *tracer) error {
	cs := &c.cases[i]
	s := cs.scheme
	var td *timedDecoder
	var tp *timedProver
	if tr != nil {
		td = &timedDecoder{Decoder: s.Decoder}
		tp = &timedProver{Prover: s.Prover}
		s.Decoder, s.Prover = td, tp
	}
	n := cs.inst.G.N()
	start := time.Now()
	var stats sim.Stats
	accepted := 0
	if !cs.plan.Active() {
		accept, st, err := sim.RunScheme(s, cs.inst)
		if err != nil {
			return fmt.Errorf("%s on %d nodes: %w", s.Name, n, err)
		}
		if c.flip {
			accept[0] = !accept[0]
		}
		for v, ok := range accept {
			if !ok {
				return fmt.Errorf("%s on %d nodes: node %d rejects, the centralized run accepts", s.Name, n, v)
			}
			accepted++
		}
		stats = st
	} else {
		var sc obs.Scope
		if tr != nil {
			sc = obs.NewScope()
		}
		fr, err := sim.RunSchemeFaultsCtx(ctx, sc, s, cs.inst, cs.plan)
		if err != nil {
			return fmt.Errorf("%s on %d nodes under %s: %w", s.Name, n, cs.plan, err)
		}
		if c.flip {
			fr.Verdicts[0] = flipVerdict(fr.Verdicts[0])
		}
		a, r, crashed := fr.Counts()
		if a+r+crashed != n {
			return fmt.Errorf("%s on %d nodes: %d+%d+%d verdicts", s.Name, n, a, r, crashed)
		}
		if crashed != cs.crashes {
			return fmt.Errorf("%s on %d nodes: %d crashed, %d injected", s.Name, n, crashed, cs.crashes)
		}
		if fingerprint(fr) != cs.fingerprint {
			return fmt.Errorf("%s on %d nodes under %s: run differs from its replay", s.Name, n, cs.plan)
		}
		if tr != nil {
			if err := recordFaulty(tr, sc); err != nil {
				return fmt.Errorf("%s on %d nodes: %w", s.Name, n, err)
			}
		}
		accepted = a
		stats = fr.Stats
	}
	if tr == nil {
		return nil
	}
	opMS := msSince(start)
	decideMS, certifyMS := nsToMS(td.ns.Load()), nsToMS(tp.ns)
	tr.sample("sim.self_ms", opMS-decideMS-certifyMS)
	tr.sample("decoders.decide.ms", decideMS)
	tr.sample("decoders.certify.ms", certifyMS)
	tr.add("ops", 1)
	tr.add("nodes", float64(n))
	tr.add("accepted", float64(accepted))
	tr.add("rounds", float64(stats.Rounds))
	tr.add("messages", float64(stats.Messages))
	tr.add("records", float64(stats.Records))
	tr.add("decoder.calls", float64(td.calls.Load()))
	tr.add("decoder.ns", float64(td.ns.Load()))
	return nil
}

// recordFaulty checks verdict conservation on the counters the simulator
// records and files its fault counters.
func recordFaulty(tr *tracer, sc obs.Scope) error {
	c := func(name string) float64 { return float64(sc.Counter(name).Value()) }
	nodes := c("sim.nodes")
	sum := c("sim.verdicts.accepted") + c("sim.verdicts.rejected") + c("sim.verdicts.crashed")
	if sum != nodes {
		return fmt.Errorf("sim.verdicts accepted+rejected+crashed = %.0f, want sim.nodes = %.0f", sum, nodes)
	}
	tr.add("faulty.ops", 1)
	tr.add("dropped", c("sim.dropped"))
	tr.add("duplicated", c("sim.duplicated"))
	tr.add("delayed", c("sim.delayed"))
	tr.add("expired", c("sim.expired"))
	return nil
}

func flipVerdict(v core.Verdict) core.Verdict {
	if v == core.VerdictAccept {
		return core.VerdictReject
	}
	return core.VerdictAccept
}

func (c *chaos) layers(tr *tracer, untraced *phase, out map[string]float64) {
	var free, faulty []float64
	for k, ms := range untraced.opMS {
		if c.cases[k%len(c.cases)].plan.Active() {
			faulty = append(faulty, ms)
		} else {
			free = append(free, ms)
		}
	}
	out["sim.faultfree.ms"] = median(free)
	out["sim.faulty.ms"] = median(faulty)
	ops, faultyOps := tr.totals["ops"], tr.totals["faulty.ops"]
	if ops == 0 {
		return
	}
	out["sim.rounds"] = tr.totals["rounds"] / ops
	out["sim.messages"] = tr.totals["messages"] / ops
	out["sim.records"] = tr.totals["records"] / ops
	out["sim.accept_ratio"] = tr.ratio("accepted", "nodes")
	out["decoders.decide.calls"] = tr.totals["decoder.calls"] / ops
	out["decoders.decide.ns_per_call"] = tr.ratio("decoder.ns", "decoder.calls")
	if faultyOps > 0 {
		out["faults.dropped"] = tr.totals["dropped"] / faultyOps
		out["faults.duplicated"] = tr.totals["duplicated"] / faultyOps
		out["faults.delayed"] = tr.totals["delayed"] / faultyOps
		out["faults.expired"] = tr.totals["expired"] / faultyOps
	}
}
