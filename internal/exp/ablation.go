package exp

import (
	"context"

	"pcc/internal/core"
	"pcc/internal/netem"
)

// RunAblation quantifies the design choices DESIGN.md §4/§4b calls out, on
// the Fig. 7 lossy-link scenario (100 Mbps, 30 ms, 1% loss both ways) and
// the clean-link case:
//
//   - RCTs on/off (§2.1 "multiple randomized controlled trials"),
//   - the single-loss forgiveness in the safe utility,
//   - the Vivace gradient utility extension,
//   - ε granularity.
func RunAblation(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 40, scale)

	type variant struct {
		label string
		loss  float64
		cfg   func() core.Config
	}
	base := func() core.Config { return core.DefaultConfig(0.030) }
	noForgive := func() core.Config {
		c := base()
		c.Utility = &core.SafeUtility{Alpha: 100, LossCap: 0.05, NoForgiveness: true}
		return c
	}
	noRCT := func() core.Config {
		c := base()
		c.NoRCT = true
		return c
	}
	bigEps := func() core.Config {
		c := base()
		c.EpsMin, c.EpsMax = 0.05, 0.05
		return c
	}
	vivace := func() core.Config {
		c := base()
		c.Utility = core.NewVivaceUtility()
		return c
	}

	variants := []variant{
		{"default (clean)", 0, base},
		{"default (1% loss)", 0.01, base},
		{"no-RCT (1% loss)", 0.01, noRCT},
		{"no-forgiveness (1% loss)", 0.01, noForgive},
		{"eps=0.05 (1% loss)", 0.01, bigEps},
		{"vivace utility (clean)", 0, vivace},
		{"vivace utility (1% loss)", 0.01, vivace},
	}

	rep := &Report{
		ID:     "ablation",
		Title:  "design-choice ablations on the Fig. 7 path (100 Mbps, 30 ms)",
		Header: []string{"variant", "goodput_Mbps", "reversions", "inconclusive"},
	}
	rows, err := RunPointsScratchCtx(ctx, len(variants), func(i int, ts *TrialScratch) []string {
		v := variants[i]
		cfg := v.cfg()
		r := ts.Runner("pcc", PathSpec{RateMbps: 100, RTT: 0.030, Loss: v.loss, BufBytes: 375 * netem.KB, Seed: seed})
		f := r.AddFlow(FlowSpec{Proto: "pcc", PCCConfig: &cfg, RevLoss: v.loss})
		r.Run(dur)
		return []string{
			v.label,
			f2(f.GoodputMbps(dur)),
			f2(float64(f.PCC.Controller().Reversions())),
			f2(float64(f.PCC.Controller().Inconclusive())),
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Notes = append(rep.Notes,
		"no-forgiveness shows the startup trap the loss de-noising fixes; no-RCT trades stability for speed (Fig. 16)")
	return rep, nil
}
