package main

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"pcc/internal/exp"
)

// workerCheckIDs are re-run at one worker during set-up; the suite's reports
// of them, made at default workers, must equal these byte for byte.
var workerCheckIDs = []string{"fig10", "parklot", "linkflap"}

// paperSuite is `pccbench -exp all -scale 0.1`: every registered experiment
// once, in exp.IDs() order, at default workers, all on the run's seed. It is
// cold on purpose — users pay arena and seed warm-up on every invocation —
// so a round is one pass and a run at the default length is one round.
//
// Set-up is the one-worker reference pass over workerCheckIDs. Operations
// are the exp.Run calls; op_ms_tail is the slowest of them, the driver that
// bounds the suite on a machine with cores to spare.
func paperSuite(r *run) {
	sz := r.sz
	var refIDs []string
	for _, id := range workerCheckIDs {
		if slices.Contains(sz.SuiteIDs, id) {
			refIDs = append(refIDs, id)
		}
	}
	refs := make(map[string]string)
	for i := 0; i < sz.SetupReps; i++ {
		r.setup(func() {
			exp.SetWorkers(1)
			defer exp.SetWorkers(0)
			for _, id := range refIDs {
				rep, err := exp.Run(id, sz.SuiteScale, r.o.seed)
				if err != nil {
					r.fail("reference %s: %v", id, err)
					continue
				}
				refs[id] = rep.String()
			}
		})
	}

	var opMS []float64
	var first map[string]string
	spent := make(map[string]float64)
	suiteWall := 0.0
	for round := 0; round < sz.SuiteRounds; round++ {
		texts := make(map[string]string)
		reps := make(map[string]*exp.Report)
		failed := 0
		root := -1
		r.round(func() {
			root = r.tr.begin("paper_suite", "bench", -1, round)
			for _, id := range sz.SuiteIDs {
				sp := r.tr.begin("exp.Run("+id+")", "exp", root, round)
				t0 := time.Now()
				rep, err := exp.Run(id, sz.SuiteScale, r.o.seed)
				d := time.Since(t0).Seconds()
				if err != nil {
					r.tr.end(sp)
					r.fail("exp.Run(%s): %v", id, err)
					failed++
					continue
				}
				fmtSpan := r.tr.begin("Report.String("+id+")", "exp", sp, round)
				texts[id] = rep.String()
				r.tr.end(fmtSpan)
				r.tr.end(sp)
				opMS = append(opMS, d*1000)
				spent[id] += d
				suiteWall += d
				reps[id] = rep
				// Each experiment starts from a collected heap and an empty
				// arena pool, as `pccbench -exp <id>` does, so the process's
				// peak is the hungriest experiment's own.
				settle()
			}
			r.tr.end(root)
		})
		r.attempt(len(sz.SuiteIDs), failed, "experiments")
		if round == 0 {
			first = texts
			for _, id := range sz.SuiteIDs {
				r.digest(id, []byte(texts[id]))
				if rep := reps[id]; rep != nil {
					checkShape(r, id, rep)
				}
			}
			for _, id := range refIDs {
				r.check(texts[id] == refs[id], "%s differs between 1 worker and default workers", id)
			}
		} else {
			for _, id := range sz.SuiteIDs {
				r.check(texts[id] == first[id], "%s differs between round 1 and round %d", id, round+1)
			}
		}
	}

	sorted := sortedCopy(opMS)
	r.set("ops_per_s", float64(len(opMS))/suiteWall)
	r.set("op_ms_mid", midMean(sorted), opMS...)
	r.set("op_ms_tail", sorted[len(sorted)-1])
	for id, d := range spent {
		r.set("exp.id."+id+"_frac", d/suiteWall)
	}
}

// checkShape asserts the paper-shape invariants that can be read off report
// cells, so a change that keeps the suite fast by breaking its results fails.
func checkShape(r *run, id string, rep *exp.Report) {
	// Every conservation note a driver prints must say the ledger balanced.
	for _, note := range rep.Notes {
		if strings.Contains(note, "conserved=") || strings.Contains(note, " violated") {
			violated := strings.Contains(note, "conserved=false") ||
				(strings.Contains(note, " violated") && !strings.Contains(note, " 0 violated"))
			r.check(!violated, "%s: %s", id, note)
		}
	}
	switch id {
	case "fig7":
		// Paper §4.1.3: at 1% random loss PCC keeps most of the link while
		// CUBIC collapses; the lowest ratio of seeds 1..40 is 9.7x.
		row := findRow(rep, "0.010")
		pcc, cubic := cell(rep, row, 1), cell(rep, row, 3)
		r.check(cubic > 0 && pcc >= 5*cubic, "fig7: PCC %.1f Mbps is not 5x CUBIC %.1f at 1%% loss", pcc, cubic)
	case "fig13":
		// Paper §4.2.1: PCC flows share fairly at every time scale. At scale
		// 0.1 the runs are short and the index depends on the seed: the
		// lowest of seeds 1..40 is 0.897, so the floor here is 0.80.
		for i, row := range rep.Rows {
			if row[0] != "pcc" {
				continue
			}
			for col := 2; col < len(row); col++ {
				if row[col] == "-" {
					continue
				}
				jain := cell(rep, i, col)
				r.check(jain >= 0.80, "fig13: PCC %s flows, %s: Jain index %.3f is below 0.80", row[1], rep.Header[col], jain)
			}
		}
	}
}

func findRow(rep *exp.Report, key string) int {
	for i, row := range rep.Rows {
		if len(row) > 0 && row[0] == key {
			return i
		}
	}
	return -1
}

func cell(rep *exp.Report, row, col int) float64 {
	if row < 0 || row >= len(rep.Rows) || col < 0 || col >= len(rep.Rows[row]) {
		return 0
	}
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}
