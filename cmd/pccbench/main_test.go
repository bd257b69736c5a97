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

// TestTrialTimeoutFlag pins the -trialtimeout plumbing through the real
// flag instance: applyKnobs puts it in the exp.Config every experiment call
// runs under, and resetting the flag restores the default (disabled).
func TestTrialTimeoutFlag(t *testing.T) {
	defer func() {
		if err := flag.Set("trialtimeout", "0"); err != nil {
			t.Error(err)
		}
	}()
	if err := flag.Set("trialtimeout", "750ms"); err != nil {
		t.Fatal(err)
	}
	if got := applyKnobs().TrialTimeout; got != 750*time.Millisecond {
		t.Errorf("after -trialtimeout 750ms, Config.TrialTimeout = %v, want 750ms", got)
	}
	if err := flag.Set("trialtimeout", "0"); err != nil {
		t.Fatal(err)
	}
	if got := applyKnobs().TrialTimeout; got != 0 {
		t.Errorf("after reset, Config.TrialTimeout = %v, want 0 (disabled)", got)
	}
}

// TestScaleFlags pins the -nodes/-flows/-par plumbing: -par sets exp's
// process-wide trial budget, -nodes/-flows land in the per-call exp.Config
// applyKnobs returns, and resetting them restores the scale-derived
// default (0 = no pin).
func TestScaleFlags(t *testing.T) {
	defer func() {
		exp.SetWorkers(0)
		for _, name := range []string{"nodes", "flows", "par"} {
			if err := flag.Set(name, "0"); err != nil {
				t.Error(err)
			}
		}
	}()
	for name, v := range map[string]string{"nodes": "120", "flows": "1500", "par": "2"} {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	cfg := applyKnobs()
	if got := exp.Workers(); got != 2 {
		t.Errorf("after -par 2, exp.Workers() = %d, want 2", got)
	}
	if cfg.Nodes != 120 || cfg.Flows != 1500 {
		t.Errorf("after -nodes 120 -flows 1500, Config = %+v, want Nodes 120, Flows 1500", cfg)
	}
	for _, name := range []string{"nodes", "flows"} {
		if err := flag.Set(name, "0"); err != nil {
			t.Fatal(err)
		}
	}
	if cfg := applyKnobs(); cfg.Nodes != 0 || cfg.Flows != 0 {
		t.Errorf("after reset, Config = %+v, want Nodes 0, Flows 0 (scale-derived)", cfg)
	}
}
