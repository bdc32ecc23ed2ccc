package nbhd

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// FromLabeled enumerates a fixed list of labeled instances, e.g. the
// hand-built instance pairs from the paper's hiding proofs (Figs. 3, 5, and
// the P8/P7 and two-ID constructions of Section 7). Shard i of k holds the
// instances at positions i, i+k, i+2k, ...
func FromLabeled(insts ...core.Labeled) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		part := subList(insts, i, k)
		return func(yield func(core.Labeled) bool) error {
			for _, l := range part {
				if err := l.Validate(); err != nil {
					return fmt.Errorf("instance %v: %w", l.G, err)
				}
				if !yield(l) {
					return nil
				}
			}
			return nil
		}
	})
}

// ProverLabeled labels each instance with the scheme prover's certificate.
// Instances the prover rejects produce an error (they are outside the
// promise class and should not be enumerated). Shards split the instance
// list by index residue, so each shard runs the prover only on its own
// instances and certification cost parallelizes along with view
// extraction.
func ProverLabeled(s core.Scheme, insts ...core.Instance) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		part := subList(insts, i, k)
		return func(yield func(core.Labeled) bool) error {
			for _, inst := range part {
				labels, err := s.Prover.Certify(inst)
				if err != nil {
					return fmt.Errorf("prover on %v: %w", inst.G, err)
				}
				l, err := core.NewLabeled(inst, labels)
				if err != nil {
					return err
				}
				if !yield(l) {
					return nil
				}
			}
			return nil
		}
	})
}

// AllLabelings produces every labeling of every instance over the given
// alphabet (|alphabet|^n labelings per instance). This is the Lemma 3.1
// search restricted to a family and an alphabet; callers keep instances
// small. Shards split the labeling space of every instance by labeling
// prefix (graph.EnumLabelingsShard): all shards walk the instance list in
// order, each enumerating only its own slice of the labelings. The yielded
// Labeled's label slice is reused across labelings of one instance and is
// valid only during the yield; copy it to retain (the builders copy label
// strings into views immediately).
func AllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator { return allLabelingsShard(alphabet, insts, i, k) })
}

// allLabelingsShard enumerates, per instance, the labelings assigned to the
// given shard of the labeling-prefix partition (graph.EnumLabelingsShard).
// shard 0 of 1 is the full sequential enumeration. One label slice is
// reused across all labelings of one instance; see AllLabelings.
func allLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			stopped := false
			labels := make([]string, inst.G.N())
			graph.EnumLabelingsShard(inst.G.N(), len(alphabet), shard, shards, func(idx []int) bool {
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				if !yield(core.MustNewLabeled(inst, labels)) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
		return nil
	}
}

// AllPortsAllLabelings extends AllLabelings by also ranging over every port
// assignment of every instance graph, sharded on the labeling dimension:
// every shard ranges over every port assignment but enumerates only its own
// labeling-prefix slice under each. Exponential in both; micro universes
// only.
func AllPortsAllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		return func(yield func(core.Labeled) bool) error {
			for _, inst := range insts {
				stopped := false
				graph.EnumPorts(inst.G, func(pt *graph.Ports) bool {
					withPorts := inst.WithPorts(pt)
					inner := allLabelingsShard(alphabet, []core.Instance{withPorts}, i, k)
					if err := inner(func(l core.Labeled) bool {
						if !yield(l) {
							stopped = true
							return false
						}
						return true
					}); err != nil {
						panic(fmt.Sprintf("nbhd.AllPortsAllLabelings: %v", err))
					}
					return !stopped
				})
				if stopped {
					return nil
				}
			}
			return nil
		}
	})
}

// Chain concatenates enumerators: the sequential order chains the
// children's sequential orders, and shard i chains the children's i-th
// shards, preserving disjointness and relative order.
func Chain(ses ...ShardedEnumerator) ShardedEnumerator {
	return shardFunc(func(i, k int) Enumerator {
		return func(yield func(core.Labeled) bool) error {
			for _, se := range ses {
				stopped := false
				if err := se.Shards(k)[i](func(l core.Labeled) bool {
					if !yield(l) {
						stopped = true
						return false
					}
					return true
				}); err != nil {
					return err
				}
				if stopped {
					return nil
				}
			}
			return nil
		}
	})
}

// ClassInstances builds anonymous instances (default ports, no IDs) from a
// list of graphs, filtered by pred (pass nil for no filter). It is a
// convenience for assembling promise-class families.
func ClassInstances(gs []*graph.Graph, pred func(*graph.Graph) bool) []core.Instance {
	var out []core.Instance
	for _, g := range gs {
		if pred != nil && !pred(g) {
			continue
		}
		out = append(out, core.NewAnonymousInstance(g))
	}
	return out
}
