package exp

import (
	"context"
	"fmt"

	"pcc/internal/netem"
)

// RunLinkFlap ("linkflap") probes recovery from hard link failures, the
// robustness companion to Fig. 8's loss sweep: instead of a constant random
// loss rate, the middle hop of a 3-hop chain flaps — repeated down/up cycles
// with seeded ±30% phase jitter — destroying every in-flight packet and
// parking the serializer while down. PCC's utility-driven probing has no
// loss-type oracle (§2.3), so a flap looks like a catastrophic loss episode;
// the question is how fast each scheme's rate recovers once the link heals.
// The report gives whole-run goodput, the pre-fault reference rate, goodput
// over the flap window, and the recovery time: how long after the final heal
// the flow takes to first reach 80% of its pre-fault rate.
func RunLinkFlap(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(40, 10, scale)
	protos := []string{"pcc", "cubic"}
	firstDownAt := 0.25 * dur

	rep := &Report{
		ID: "linkflap",
		Title: fmt.Sprintf("middle-hop link flaps on a 3-hop chain (down/up cycles over [%.1fs, %.1fs], ±30%% jitter)",
			firstDownAt, 0.7*dur),
		Header: []string{"proto", "run_Mbps", "ref_Mbps", "flap_Mbps", "recovery_s"},
	}
	rows, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) trialRow {
		proto := protos[i]
		r, long := linkFlapTrial(ts, proto, dur, TrialSeed(seed, i))

		const bucket = 0.1
		ref := long.WindowMbps(0.1*dur, firstDownAt)
		// The fault log holds the jittered per-trial times as they ran; the
		// last link-up is when the path is whole again for good.
		lastHeal := max(firstDownAt, r.FaultLog().LastUp)
		flapT := long.WindowMbps(firstDownAt, lastHeal)
		series := ts.f64[:0]
		series = long.SeriesMbpsInto(series)
		rec := recoveryAfter(series, bucket, lastHeal, 0.8*ref)
		ts.f64 = series

		tr := trialRow{row: []string{
			proto,
			f1(long.WindowMbps(0.1*dur, dur)), f1(ref), f1(flapT), fmtRecovery(rec),
		}}
		if proto == "pcc" {
			tr.notes = r.FaultStatsNotes()
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	rep.addRows(rows)
	rep.Notes = append(rep.Notes,
		"ref_Mbps: goodput before the first outage; flap_Mbps: goodput across the flap window; recovery_s: time after the last heal to reach 80% of ref",
		"fault_dropped counts in-flight packets destroyed by the outages; conservation must hold through every down/up transition")
	return rep, nil
}

// linkFlapTrial runs one flap trial: a 3-hop chain with a single flow over
// all hops (Fig. 8 style: one sender, so the rate trace isolates the control
// loop's reaction to the outages) and a FlapSpec on the middle forward link
// f1.
func linkFlapTrial(ts *TrialScratch, proto string, dur float64, seed int64) (*Runner, *Flow) {
	r, long, _ := chainTrial(ts, chainSpec{exp: "linkflap", nHops: 3, bucket: 0.1,
		faults: &netem.FaultSchedule{Flaps: []netem.FlapSpec{{
			Link:        fwdName(1),
			FirstDownAt: 0.25 * dur,
			DownDur:     0.3,
			UpDur:       0.7,
			Jitter:      0.3,
			Until:       0.7 * dur,
		}}},
	}, proto, dur, seed)
	return r, long
}

// recoveryAfter scans a bucketed rate series (bucket seconds wide) for the
// first bucket ending after the heal instant whose rate reaches target, and
// returns the gap from healAt to that bucket's end. Returns -1 if the series
// never gets there.
func recoveryAfter(series []float64, bucket, healAt, target float64) float64 {
	for i := int(healAt / bucket); i < len(series); i++ {
		end := float64(float64(i+1) * bucket)
		if end <= healAt {
			continue
		}
		if series[i] >= target {
			return end - healAt
		}
	}
	return -1
}

// fmtRecovery renders a recoveryAfter result, using "never" for a flow that
// does not regain the target rate before the run ends.
func fmtRecovery(rec float64) string {
	if rec < 0 {
		return "never"
	}
	return f2(rec)
}
