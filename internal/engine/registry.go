package engine

import (
	"fmt"
	"strconv"
	"strings"

	"hidinglcp/internal/cli"
	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/nbhd"
)

// Registry is the one named-scheme table behind every CLI: schemes (with
// their sweep alphabets), the canonical hiding family of each scheme, and
// the experiment runners. Default() is the production registry; tests can
// build narrower ones.
type Registry struct {
	schemes     []decoders.SchemeEntry
	experiments []experiments.Runner
}

// Default returns the registry over every scheme in decoders.Schemes and
// every experiment in experiments.All.
func Default() *Registry {
	return &Registry{
		schemes:     decoders.Schemes(),
		experiments: experiments.All(),
	}
}

// SchemeNames lists the scheme identifiers, in registry order.
func (r *Registry) SchemeNames() []string {
	names := make([]string, len(r.schemes))
	for i, e := range r.schemes {
		names[i] = e.Name
	}
	return names
}

// Scheme resolves a scheme identifier.
func (r *Registry) Scheme(name string) (core.Scheme, error) {
	for _, e := range r.schemes {
		if e.Name == name {
			return e.New(), nil
		}
	}
	return core.Scheme{}, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(r.SchemeNames(), ", "))
}

// Alphabet returns the exhaustive-sweep alphabet of a scheme, or an error
// for schemes with identifier-dependent certificates.
func (r *Registry) Alphabet(name string) ([]string, error) {
	for _, e := range r.schemes {
		if e.Name != name {
			continue
		}
		if e.Alphabet == nil {
			return nil, fmt.Errorf("scheme %q has identifier-dependent certificates; no finite alphabet to sweep", name)
		}
		return e.Alphabet(), nil
	}
	return nil, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(r.SchemeNames(), ", "))
}

// Family picks the canonical hiding family of a scheme — the slice of
// V(D, n) its hiding witness lives in — or builds a prover-labeled family
// from explicit comma-separated graph specs. Families come back sharded so
// the neighborhood-graph build can run on multiple workers.
func (r *Registry) Family(s core.Scheme, schemeName, graphsSpec string) (nbhd.ShardedEnumerator, string, error) {
	if graphsSpec != "" {
		var insts []core.Instance
		for _, spec := range strings.Split(graphsSpec, ",") {
			g, err := cli.ParseGraph(spec)
			if err != nil {
				return nil, "", err
			}
			if s.Decoder.Anonymous() {
				insts = append(insts, core.NewAnonymousInstance(g))
			} else {
				insts = append(insts, core.NewInstance(g))
			}
		}
		return nbhd.ProverLabeled(s, insts...), fmt.Sprintf("prover-labeled %s", graphsSpec), nil
	}
	switch schemeName {
	case "degree-one", "union":
		return nbhd.AllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...),
			"exhaustive connected bipartite δ=1 slice, n <= 4, all ports and labelings", nil
	case "even-cycle":
		family, err := decoders.EvenCycleFamily(4, 6)
		if err != nil {
			return nil, "", err
		}
		return nbhd.FromLabeled(family...), "all yes-instances on C4 and C6 (every port assignment, both phases)", nil
	case "shatter", "shatter-literal":
		l1, l2 := decoders.ShatterHidingPair()
		return nbhd.FromLabeled(l1, l2), "the paper's P8/P7 hiding pair", nil
	case "watermelon":
		family, err := decoders.WatermelonHidingFamily()
		if err != nil {
			return nil, "", err
		}
		return nbhd.FromLabeled(family...), "P8 identifier pair + rotated even-cycle watermelons", nil
	case "trivial", "trivial3":
		return nil, "", fmt.Errorf("the trivial scheme needs an explicit -graphs family")
	default:
		return nil, "", fmt.Errorf("no canonical family for scheme %q; pass -graphs", schemeName)
	}
}

// Experiments lists every registered experiment runner, in index order.
func (r *Registry) Experiments() []experiments.Runner {
	return r.experiments
}

// NormalizeExperimentID maps user-friendly spellings ("e04", "E04", "4")
// onto the canonical experiment IDs ("E4").
func NormalizeExperimentID(s string) string {
	t := strings.TrimLeft(strings.ToUpper(strings.TrimSpace(s)), "E")
	if n, err := strconv.Atoi(t); err == nil {
		return fmt.Sprintf("E%d", n)
	}
	return strings.ToUpper(strings.TrimSpace(s))
}
