// Command bench is the repository's benchmark: four workloads measured end
// to end from outside the packages under test, a traced run that adds
// per-layer probes and counters, and a comparison mode for two sets of runs.
// BENCHMARK.json at the repository root declares what it emits; README.md in
// this directory says why each workload and metric exists.
//
//	bash bench/run.sh --workload wan_trial --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh -check A.ndjson B.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	size     string // "full" or "tiny" (tests)
	out      string // append the full result here as one JSON line
	expect   string // result file whose digests this run must reproduce
	outDir   string // trace files and temp dirs live here
}

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr)) }

// mainExit is main with its exit code returned, so the test can assert that
// a failed check exits non-zero.
func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var check, spec bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 42, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 20, "target length of the measured region; fixes the op counts")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: spans, per-layer probes and counters")
	fs.StringVar(&o.size, "size", "full", "full, or tiny for the self-test")
	fs.StringVar(&o.out, "out", "", "append the full result to this file as one JSON line")
	fs.StringVar(&o.expect, "expect", "", "result file whose report digests this run must reproduce")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for trace files and scratch")
	fs.BoolVar(&check, "check", false, "compare two result files: -check A B")
	fs.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the metric tables declare it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if spec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	if check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -check A.ndjson B.ndjson")
			return 2
		}
		return runCheck(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	o.trace = trace != 0
	var body func(r *run)
	for _, w := range workloadTable {
		if w.name == o.workload {
			body = w.body
		}
	}
	if body == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || (o.size != "full" && o.size != "tiny") {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -size full or tiny")
		return 2
	}
	// The harness reads these; a stray one would silently change the work.
	for _, name := range []string{"PCC_PAR", "PCC_SHARDS", "PCC_GOGC", "PCC_NODES", "PCC_FLOWS", "PCC_TRIAL_TIMEOUT"} {
		os.Unsetenv(name)
	}
	res, err := execute(o, body)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout)
	if o.out != "" {
		if err := appendJSONLine(o.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The contract line is last on stdout, whatever else was printed.
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

func appendJSONLine(path string, v any) (err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(b, '\n'))
	return err
}
