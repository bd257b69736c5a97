// Command pccbench regenerates any table or figure from the paper's
// evaluation (§4) as a text table.
//
// Usage:
//
//	pccbench -exp fig7            # one experiment at default scale
//	pccbench -exp all -scale 1.0  # every experiment at paper-duration scale
//	pccbench -exp fig10 -par 8    # pin the worker pool to 8 goroutines
//	pccbench -list
//
// Scale shortens experiment durations/trial counts proportionally (default
// 0.2); shapes are preserved, absolute convergence detail improves with
// scale. Seeds make every run reproducible: each experiment fans its trials
// out across a worker pool (bounded by -par, else GOMAXPROCS) and produces
// byte-identical tables at any worker count; each trial runs on one engine.
// -nodes, -flows and -trialtimeout reach each experiment as its context's
// exp.Config.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pcc/internal/exp"
)

// Flags are package-level so tests can drive the knob plumbing through the
// real flag instances (flag.Set + applyKnobs) without spawning a process.
var (
	id         = flag.String("exp", "", "experiment id (figN, table1, loss50, theory) or 'all'")
	scale      = flag.Float64("scale", 0.2, "duration/trial scale in (0,1]; 1.0 = paper durations")
	seed       = flag.Int64("seed", 42, "root RNG seed")
	par        = flag.Int("par", 0, "trials run at once, process-wide (0 = auto: GOMAXPROCS; 1 = sequential)")
	nodes      = flag.Int("nodes", 0, "target node count for generated-topology experiments (0 = auto: scale-derived)")
	flows      = flag.Int("flows", 0, "target concurrent flow count for generated-topology experiments (0 = auto: scale-derived)")
	trialTO    = flag.Duration("trialtimeout", 0, "per-trial watchdog: a trial exceeding this fails typed instead of hanging the run (0 = disabled)")
	list       = flag.Bool("list", false, "list experiment ids and exit")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
)

// applyKnobs sets -par as exp's process-wide trial budget and returns the
// exp.Config of the other knobs, which every experiment call runs under.
// Every driver fans its independent trials out over exp's worker pool;
// results are bit-identical at any worker count.
// -nodes/-flows pin the size of generated-topology experiments (wan)
// independently of -scale — unlike -par, they change what is simulated, so
// they change the report.
func applyKnobs() exp.Config {
	exp.SetWorkers(*par)
	return exp.Config{Nodes: *nodes, Flows: *flows, TrialTimeout: *trialTO}
}

func main() {
	// Exit via a return code so the profile-flushing defers in run always
	// execute — os.Exit in the body would truncate an in-flight CPU profile
	// exactly when profiling a failing run matters most.
	os.Exit(run())
}

func run() int {
	flag.Parse()

	// Profiling hooks so hot-path regressions can be chased on the real
	// experiment mix (go tool pprof <binary> <file>) without writing a
	// throwaway harness.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pccbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pccbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pccbench:", err)
			}
		}()
	}

	ctx := exp.WithConfig(context.Background(), applyKnobs())

	if *list || *id == "" {
		fmt.Println("experiments:")
		for _, e := range exp.IDs() {
			fmt.Println(" ", e)
		}
		if *id == "" && !*list {
			return 2
		}
		return 0
	}

	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	}
	for _, e := range ids {
		start := time.Now()
		rep, err := exp.RunCtx(ctx, e, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccbench:", err)
			return 1
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s in %.1fs)\n\n", e, time.Since(start).Seconds())
	}
	return 0
}
