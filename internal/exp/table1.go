package exp

import (
	"context"
	"fmt"

	"pcc/internal/netem"
)

// interDCPair is one GENI site pair from Table 1 with its measured RTT.
type interDCPair struct {
	Name string
	RTT  float64 // seconds
}

// table1Pairs are the paper's nine transmission pairs.
var table1Pairs = []interDCPair{
	{"GPO->NYSERNet", 0.0121},
	{"GPO->Missouri", 0.0465},
	{"GPO->Illinois", 0.0354},
	{"NYSERNet->Missouri", 0.0474},
	{"Wisconsin->Illinois", 0.00901},
	{"GPO->Wisc", 0.0380},
	{"NYSERNet->Wisc", 0.0383},
	{"Missouri->Wisc", 0.0209},
	{"NYSERNet->Illinois", 0.0361},
}

// RunTable1 reproduces Table 1 (§4.1.2): inter-data-center transfers over
// 800 Mbps reserved-bandwidth paths. The reservation's rate limiter has a
// small buffer (here 75 KB — a fraction of each path's BDP), which is the
// paper's explanation for TCP's collapse; PCC and SABUL track the limit.
func RunTable1(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 10, scale)
	protos := []string{"pcc", "sabul", "cubic", "illinois"}

	rep := &Report{
		ID:     "table1",
		Title:  "inter-data-center, 800 Mbps reserved paths with small-buffer rate limiter",
		Header: append([]string{"pair", "RTT_ms"}, protos...),
	}
	tputs, err := protoGrid(ctx, len(table1Pairs), protos, func(ts *TrialScratch, p int, proto string, _ int) float64 {
		path := PathSpec{RateMbps: 800, RTT: table1Pairs[p].RTT, BufBytes: 75 * netem.KB, Seed: seed + int64(p)}
		return runSingle(ts, path, proto, dur)
	})
	if err != nil {
		return nil, err
	}
	var sumPCC, sumIll float64
	var maxRatio float64
	for i, pair := range table1Pairs {
		row := []string{pair.Name, f1(pair.RTT * 1e3)}
		for _, tput := range tputs[i] {
			row = append(row, fmt.Sprintf("%.0f", tput))
		}
		pccT, illT := tputs[i][0], tputs[i][3] // protos: pcc, sabul, cubic, illinois
		sumPCC += pccT
		sumIll += illT
		if illT > 0 && pccT/illT > maxRatio {
			maxRatio = pccT / illT
		}
		rep.Rows = append(rep.Rows, row)
	}
	if sumIll > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("PCC vs Illinois: %.1fx on average, up to %.1fx (paper: 5.2x avg, up to 7.5x)",
			sumPCC/sumIll, maxRatio))
	}
	return rep, nil
}
