package cli

import (
	"reflect"
	"testing"

	"hidinglcp/internal/faults"
)

func TestFaultFlagsZeroValue(t *testing.T) {
	var f FaultFlags
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active() {
		t.Errorf("zero flags parse to an active plan: %+v", plan)
	}
	// Seed alone keys decisions without activating faults.
	f.Seed = 7
	plan, err = f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.Active() {
		t.Errorf("seed-only plan: %+v", plan)
	}
}

func TestFaultFlagsFullSpec(t *testing.T) {
	f := FaultFlags{
		Spec: "drop=0.2, dup=0.1, delay=0.3:2, reorder, corrupt=1+4, retry=5, trace",
		Seed: 42,
	}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Plan{
		Seed:         42,
		Drop:         0.2,
		Duplicate:    0.1,
		Delay:        0.3,
		MaxDelay:     2,
		Reorder:      true,
		CorruptNodes: []int{1, 4},
		RetryLimit:   5,
		Trace:        true,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("Plan =\n%+v, want\n%+v", plan, want)
	}
}

func TestFaultFlagsDelayWithoutBound(t *testing.T) {
	f := FaultFlags{Spec: "delay=0.5"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delay != 0.5 || plan.MaxDelay != 0 {
		t.Errorf("Plan = %+v", plan)
	}
}

func TestFaultFlagsCrashSpec(t *testing.T) {
	f := FaultFlags{Crash: "3@0, 5@2, 7"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{3: 0, 5: 2, 7: 0}
	if !reflect.DeepEqual(plan.Crashes, want) {
		t.Errorf("Crashes = %v, want %v", plan.Crashes, want)
	}
}

func TestFaultFlagsParseErrors(t *testing.T) {
	cases := []struct {
		name string
		f    FaultFlags
	}{
		{"unknown fault", FaultFlags{Spec: "fizzle=0.5"}},
		{"drop without value", FaultFlags{Spec: "drop"}},
		{"bad probability", FaultFlags{Spec: "drop=lots"}},
		{"bad delay bound", FaultFlags{Spec: "delay=0.2:zero"}},
		{"negative delay bound", FaultFlags{Spec: "delay=0.2:-1"}},
		{"reorder with value", FaultFlags{Spec: "reorder=yes"}},
		{"corrupt without nodes", FaultFlags{Spec: "corrupt"}},
		{"corrupt bad node", FaultFlags{Spec: "corrupt=x"}},
		{"retry bad count", FaultFlags{Spec: "retry=many"}},
		{"crash bad node", FaultFlags{Crash: "x@0"}},
		{"crash bad round", FaultFlags{Crash: "3@x"}},
		{"crash duplicate node", FaultFlags{Crash: "3@0,3@1"}},
		{"crash empty", FaultFlags{Crash: " , "}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.f.Plan(); err == nil {
				t.Errorf("Plan accepted %+v", tt.f)
			}
		})
	}
}

// TestFaultFlagsPlanValidates: out-of-range probabilities parse fine but
// fail plan validation downstream — the flag layer does not duplicate the
// plan's own range checks.
func TestFaultFlagsPlanValidates(t *testing.T) {
	f := FaultFlags{Spec: "drop=1.5"}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(10); err == nil {
		t.Error("out-of-range probability survived validation")
	}
}
