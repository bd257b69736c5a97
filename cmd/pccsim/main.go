// Command pccsim runs an ad-hoc dumbbell simulation: pick a path, a set of
// flows, and get per-flow goodput plus, with -series, each flow's goodput
// second by second. It is the free-form companion to pccbench's fixed paper
// experiments.
//
// Usage examples:
//
//	pccsim -rate 100 -rtt 30ms -buf 375000 -flows pcc,cubic -dur 60
//	pccsim -rate 42 -rtt 800ms -loss 0.0074 -flows pcc,hybla -dur 100
//	pccsim -rate 40 -rtt 20ms -queue fqcodel -flows pcc:latency,pcc:latency -series
//
// Flow syntax: PROTO[:UTILITY][@START], e.g. "pcc:latency@5" starts a
// latency-utility PCC flow at t=5s. Utilities (pcc only): safe (default),
// latency, resilient, vivace. Protocols: pcc, sabul, pcp, pacing, newreno,
// cubic, illinois, hybla, vegas, bic, westwood.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pcc/internal/core"
	"pcc/internal/exp"
	"pcc/internal/netem"
	"pcc/internal/tcp"
)

func main() {
	rate := flag.Float64("rate", 100, "bottleneck rate, Mbps")
	rtt := flag.Duration("rtt", 30*time.Millisecond, "path RTT")
	loss := flag.Float64("loss", 0, "forward Bernoulli loss probability")
	buf := flag.Int("buf", 375000, "bottleneck buffer, bytes")
	queue := flag.String("queue", "droptail", "queue kind: droptail, codel, fq, fqcodel")
	flows := flag.String("flows", "pcc", "comma-separated flow specs (see doc comment)")
	dur := flag.Float64("dur", 60, "simulated duration, seconds")
	seed := flag.Int64("seed", 42, "root RNG seed")
	series := flag.Bool("series", false, "print 1 Hz per-flow goodput series")
	flag.Parse()

	// Everything the harness would panic on (or silently simulate nothing
	// for) is refused here, before anything is built.
	err := validatePath(*rate, rtt.Seconds(), *dur, *loss, *buf, *queue)
	var specs []exp.FlowSpec
	var labels []string
	if err == nil {
		specs, labels, err = parseFlows(*flows, rtt.Seconds())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		os.Exit(2)
	}

	r := exp.NewRunner(exp.PathSpec{
		RateMbps:  *rate,
		RTT:       rtt.Seconds(),
		Loss:      *loss,
		BufBytes:  *buf,
		QueueKind: *queue,
		Seed:      *seed,
	})

	var handles []*exp.Flow
	for _, fs := range specs {
		handles = append(handles, r.AddFlow(fs))
	}

	r.Run(*dur)

	fmt.Printf("path: %.0f Mbps, %v RTT, loss %.4f, buffer %d B, %s queue, %gs\n",
		*rate, *rtt, *loss, *buf, *queue, *dur)
	for i, f := range handles {
		fmt.Printf("flow %d %-16s goodput %8.2f Mbps   mean RTT %7.2f ms\n", i, labels[i], f.GoodputMbps(*dur), f.MeanRTT()*1e3)
	}

	if *series {
		fmt.Println("\nt(s)  " + strings.Join(labels, "  "))
		series := make([][]float64, len(handles))
		for i, f := range handles {
			series[i] = f.SeriesMbps()
		}
		n := int(*dur)
		for s := 0; s < n; s++ {
			row := fmt.Sprintf("%4d", s)
			for _, sr := range series {
				v := 0.0
				if s < len(sr) {
					v = sr[s]
				}
				row += fmt.Sprintf("  %8.2f", v)
			}
			fmt.Println(row)
		}
	}
}

// validatePath rejects the path flags the harness cannot simulate: a queue
// kind netem.NewQueue does not know (or an empty one, which it would read as
// drop-tail), a rate, RTT or duration that is not positive, a negative
// buffer (a drop-tail queue would read it as unbounded), or a loss
// probability outside [0, 1).
func validatePath(rateMbps, rtt, dur, loss float64, buf int, queue string) error {
	if queue == "" {
		return fmt.Errorf("unknown queue kind %q: -queue must name one", queue)
	}
	if _, err := netem.NewQueue(queue, buf); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"rate", rateMbps}, {"rtt", rtt}, {"dur", dur}} {
		if !(f.v > 0) {
			return fmt.Errorf("-%s must be positive, got %v", f.name, f.v)
		}
	}
	if buf < 0 {
		return fmt.Errorf("-buf must not be negative, got %d", buf)
	}
	if !(loss >= 0 && loss < 1) {
		return fmt.Errorf("-loss must be in [0, 1), got %v", loss)
	}
	return nil
}

// parseFlows decodes the comma-separated -flows list into specs and their
// display labels.
func parseFlows(list string, rtt float64) (specs []exp.FlowSpec, labels []string, err error) {
	for _, spec := range strings.Split(list, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		fs, err := parseFlow(spec, rtt)
		if err != nil {
			return nil, nil, err
		}
		fs.Bucket = 1
		specs = append(specs, fs)
		labels = append(labels, spec)
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("no flows given")
	}
	return specs, labels, nil
}

// parseFlow decodes PROTO[:UTILITY][@START].
func parseFlow(spec string, rtt float64) (exp.FlowSpec, error) {
	start := 0.0
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		v, err := strconv.ParseFloat(spec[at+1:], 64)
		if err != nil || !(v >= 0) {
			return exp.FlowSpec{}, fmt.Errorf("bad start time in %q", spec)
		}
		start = v
		spec = spec[:at]
	}
	proto, utility := spec, ""
	if c := strings.Index(spec, ":"); c >= 0 {
		proto, utility = spec[:c], spec[c+1:]
	}
	switch proto {
	case "pcc", "sabul", "pcp", "pacing":
	default:
		if _, err := tcp.New(proto); err != nil {
			return exp.FlowSpec{}, fmt.Errorf("unknown protocol %q (pcc, sabul, pcp, pacing, %s)", proto, strings.Join(tcp.Variants(), ", "))
		}
	}
	if utility != "" && proto != "pcc" {
		return exp.FlowSpec{}, fmt.Errorf("utility %q applies to pcc only, not %q", utility, proto)
	}
	fs := exp.FlowSpec{Proto: proto, StartAt: start}
	if utility != "" && utility != "safe" {
		cfg, err := core.UtilityConfig(utility, rtt)
		if err != nil {
			return exp.FlowSpec{}, err
		}
		fs.PCCConfig = &cfg
	}
	return fs, nil
}
