package main

import (
	"flag"
	"slices"
	"testing"
	"time"

	"pcc/internal/exp"
)

// TestListGolden pins the `pccbench -list` output: experiment ids are part
// of the CLI contract (scripts, CI jobs, EXPERIMENTS.md all refer to them),
// so the registry must stay stable and sorted. Adding an experiment means
// updating this golden list — deliberately, in the same change.
func TestListGolden(t *testing.T) {
	want := []string{
		"ablation",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig5", "fig6", "fig7", "fig8", "fig9",
		"linkflap",
		"loss50",
		"mixmtu",
		"parklot",
		"partition",
		"revpath",
		"table1",
		"theory",
		"wan",
		"widechain",
	}
	got := exp.IDs()
	if !slices.Equal(got, want) {
		t.Fatalf("exp.IDs() drifted from the golden list:\n got: %v\nwant: %v", got, want)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("exp.IDs() not sorted: %v", got)
	}
}

// TestShardsFlag pins the -shards → exp.SetShards plumbing through the real
// flag instances: after applyKnobs, exp.Shards() must reflect the flag, and
// resetting it must restore the default resolution order (env, then 1).
func TestShardsFlag(t *testing.T) {
	defer func() {
		exp.SetShards(0)
		exp.SetWorkers(0)
		if err := flag.Set("shards", "0"); err != nil {
			t.Error(err)
		}
		if err := flag.Set("par", "0"); err != nil {
			t.Error(err)
		}
	}()
	if err := flag.Set("shards", "3"); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("par", "2"); err != nil {
		t.Fatal(err)
	}
	applyKnobs()
	if got := exp.Shards(); got != 3 {
		t.Errorf("after -shards 3, exp.Shards() = %d, want 3", got)
	}
	if got := exp.Workers(); got != 2 {
		t.Errorf("after -par 2, exp.Workers() = %d, want 2", got)
	}
}

// TestTrialTimeoutFlag pins the -trialtimeout → exp.SetTrialTimeout plumbing
// through the real flag instance, and that resetting the flag restores the
// default (disabled).
func TestTrialTimeoutFlag(t *testing.T) {
	defer func() {
		exp.SetTrialTimeout(0)
		if err := flag.Set("trialtimeout", "0"); err != nil {
			t.Error(err)
		}
	}()
	if err := flag.Set("trialtimeout", "750ms"); err != nil {
		t.Fatal(err)
	}
	applyKnobs()
	if got := exp.TrialTimeout(); got != 750*time.Millisecond {
		t.Errorf("after -trialtimeout 750ms, exp.TrialTimeout() = %v, want 750ms", got)
	}
	exp.SetTrialTimeout(0)
	if got := exp.TrialTimeout(); got != 0 {
		t.Errorf("after reset, exp.TrialTimeout() = %v, want 0 (disabled)", got)
	}
}

// TestScaleFlags pins the -nodes/-flows → exp.SetNodes/SetFlows plumbing:
// the generated-topology size knobs ride through applyKnobs exactly like
// the parallelism flags, and resetting them restores the scale-derived
// default (exp.Nodes()/Flows() report 0 = no override).
func TestScaleFlags(t *testing.T) {
	defer func() {
		exp.SetNodes(0)
		exp.SetFlows(0)
		if err := flag.Set("nodes", "0"); err != nil {
			t.Error(err)
		}
		if err := flag.Set("flows", "0"); err != nil {
			t.Error(err)
		}
	}()
	if err := flag.Set("nodes", "120"); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("flows", "1500"); err != nil {
		t.Fatal(err)
	}
	applyKnobs()
	if got := exp.Nodes(); got != 120 {
		t.Errorf("after -nodes 120, exp.Nodes() = %d, want 120", got)
	}
	if got := exp.Flows(); got != 1500 {
		t.Errorf("after -flows 1500, exp.Flows() = %d, want 1500", got)
	}
	exp.SetNodes(0)
	exp.SetFlows(0)
	if got := exp.Nodes(); got != 0 {
		t.Errorf("after reset, exp.Nodes() = %d, want 0 (scale-derived)", got)
	}
	if got := exp.Flows(); got != 0 {
		t.Errorf("after reset, exp.Flows() = %d, want 0 (scale-derived)", got)
	}
}
