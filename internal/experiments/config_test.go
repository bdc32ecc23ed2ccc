package experiments

import (
	"strings"
	"testing"

	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
)

// configured lists the experiments that read the package configuration:
// the shard/worker counts, the scope, or the fault plan.
var configured = []string{"E3", "E4", "E5", "E6", "E7", "E8", "E9", "E11", "E12", "E15", "E17"}

// runRendered runs one experiment under the current configuration and
// returns its rendered table.
func runRendered(t *testing.T, id string) string {
	t.Helper()
	for _, r := range All() {
		if r.ID != id {
			continue
		}
		table := r.Run(nil)
		if table.Err != nil {
			t.Fatalf("%s: %v", id, table.Err)
		}
		return table.Render()
	}
	t.Fatalf("no experiment %s", id)
	return ""
}

func defaultTables(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range configured {
		out[id] = runRendered(t, id)
	}
	return out
}

// TestSetParallelismKeepsTables pins the parallel drivers to their default
// run at 4 shards on 2 workers, where every pool has more than one worker.
func TestSetParallelismKeepsTables(t *testing.T) {
	want := defaultTables(t)
	SetParallelism(4, 2)
	t.Cleanup(func() { SetParallelism(0, 0) })
	for _, id := range configured {
		if got := runRendered(t, id); got != want[id] {
			t.Errorf("%s at shards=4 workers=2 drifted:\ngot:\n%s\nwant:\n%s", id, got, want[id])
		}
	}
}

// TestSetScopeKeepsTables runs each configured experiment under a fresh
// live scope: the tables stay those of the zero scope, and the fuzz
// drivers account for every trial they checked.
func TestSetScopeKeepsTables(t *testing.T) {
	want := defaultTables(t)
	t.Cleanup(func() { SetScope(obs.Scope{}) })
	trials := map[string]int64{"E3": 1000, "E4": 1500, "E5": 1800, "E6": 2400, "E7": 2400}
	for _, id := range configured {
		sc := obs.NewScope()
		SetScope(sc)
		if got := runRendered(t, id); got != want[id] {
			t.Errorf("%s under a live scope drifted:\ngot:\n%s\nwant:\n%s", id, got, want[id])
		}
		if got := sc.Counter("experiments.completed").Value(); got != 1 {
			t.Errorf("%s: experiments.completed = %d, want 1", id, got)
		}
		if got := sc.Counter("core.fuzz.trials.checked").Value(); got != trials[id] {
			t.Errorf("%s: core.fuzz.trials.checked = %d, want %d", id, got, trials[id])
		}
	}
}

// TestSetFaultPlanOverridesE17 checks that an active plan replaces every
// E17 row's pinned plan, and that clearing it restores the pinned table.
func TestSetFaultPlanOverridesE17(t *testing.T) {
	want := runRendered(t, "E17")
	plan := faults.Plan{Seed: 9, Drop: 0.5}
	SetFaultPlan(plan)
	t.Cleanup(func() { SetFaultPlan(faults.Plan{}) })
	got := runRendered(t, "E17")
	if got == want {
		t.Fatal("an active fault plan left the E17 table unchanged")
	}
	if n := strings.Count(got, "| "+plan.String()+" |"); n != 6 {
		t.Errorf("override plan %q appears in %d rows, want all 6:\n%s", plan, n, got)
	}
	SetFaultPlan(faults.Plan{})
	if got := runRendered(t, "E17"); got != want {
		t.Errorf("clearing the plan did not restore the pinned table:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
