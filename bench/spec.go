package main

import (
	"encoding/json"

	"pcc/internal/exp"
)

// decl declares one metric. The tables below are the single source of
// BENCHMARK.json (`bench -spec` prints it; the test holds the two equal).
type decl struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// WorkloadOnly marks a per-layer counter read from the workload's own
	// run. A workload that cannot reach the layer reports 0. Only counts,
	// shares and rates are declared so: a time is always a measured probe.
	WorkloadOnly bool
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_mid", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics: isolated probes of each package
// (always measured) and counters read from the workload's own run.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	probe := func(name, unit string) decl { return decl{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) decl { return decl{Name: name, Unit: unit, Better: "higher"} }
	work := func(name, unit, better string) decl {
		return decl{Name: name, Unit: unit, Better: better, WorkloadOnly: true}
	}
	d := []decl{
		probe("sim.event_ns", "ns"),
		probe("sim.event_deep_ns", "ns"),
		probe("sim.wheel_ns", "ns"),
		probe("sim.rearm_ns", "ns"),
		probe("sim.pipe_ns", "ns"),
		probe("sim.burst_ns", "ns"),
		probe("sim.reset_us", "us"),
		probe("sim.allocs_per_event", "count"),
		higher("sim.shard2_speedup", "ratio"),
		work("sim.events", "count", "lower"),
		work("sim.events_per_s", "1/s", "higher"),

		probe("netem.link_fwd_ns", "ns"),
		probe("netem.link_fwd_allocs", "count"),
		probe("netem.deep_bdp_ns", "ns"),
		probe("netem.topo3hop_ns", "ns"),
		probe("netem.codel_ns", "ns"),
		probe("netem.fq_ns", "ns"),
		work("netem.pkt_hops", "count", "lower"),
		work("netem.queue_drops", "count", "lower"),
		work("netem.wire_lost", "count", "lower"),
		work("netem.fault_dropped", "count", "lower"),
		work("netem.conserved_frac", "frac", "higher"),

		probe("cc.rate_pkt_ns", "ns"),
		probe("cc.window_pkt_ns", "ns"),
		probe("cc.pcc_flow_ns_per_pkt", "ns"),
		work("cc.sent_pkts", "count", "lower"),
		work("cc.rtx_frac", "frac", "lower"),

		probe("core.pkt_ns", "ns"),
		probe("core.allocs_per_pkt", "count"),
		work("core.decisions", "count", "lower"),
		work("core.reversion_frac", "frac", "lower"),
		work("core.inconclusive_frac", "frac", "lower"),

		probe("tcp.cubic_flow_ns_per_pkt", "ns"),

		probe("exp.pool_ns_per_trial", "ns"),
		probe("exp.respec_us_warm_seed", "us"),
		probe("exp.respec_us_new_seed", "us"),
		probe("exp.run_us_per_trial", "us"),
		probe("exp.cold_build_us", "us"),
		probe("exp.allocs_per_warm_trial", "count"),
		probe("exp.report_us", "us"),
		higher("exp.pool_speedup_w2", "ratio"),
	}
	// One share per registered experiment, so a paper_suite regression is
	// attributable to a driver: exp.Run(id) wall over the suite's wall.
	for _, id := range exp.IDs() {
		d = append(d, work("exp.id."+id+"_frac", "frac", "lower"))
	}
	return append(d,
		probe("topogen.transit_stub_ms", "ms"),
		probe("topogen.route_us_per_flow", "us"),
		probe("topogen.wan_shape_ms", "ms"),

		probe("serve.cache_put_us", "us"),
		probe("serve.cache_get_us", "us"),
		probe("serve.cache_miss_us", "us"),
		probe("serve.sched_reserve_ns", "ns"),
		probe("serve.ttfl_ms", "ms"),
		probe("serve.hit_us_per_unit", "us"),
		work("serve.ttfl_frac", "frac", "lower"),
		work("serve.cold_units_per_s", "1/s", "higher"),
		work("serve.cache_hits", "count", "higher"),
		work("serve.cache_misses", "count", "lower"),
		work("serve.cache_corrupt", "count", "lower"),
		work("serve.shed_429", "count", "lower"),

		higher("transport.loopback_mbps", "Mbps"),
		probe("transport.us_per_pkt", "us"),
		probe("transport.rtx_frac", "frac"),
		probe("transport.sleep_100us_p50_us", "us"),

		probe("trace.span_ns", "ns"),
		work("trace.spans", "count", "lower"),
		work("trace.overhead_frac", "frac", "lower"),
		work("trace.self_frac.bench", "frac", "lower"),
		work("trace.self_frac.exp", "frac", "lower"),
		work("trace.self_frac.sim", "frac", "lower"),
		work("trace.self_frac.topogen", "frac", "lower"),
		work("trace.self_frac.serve", "frac", "lower"),
	)
}

func declsFor(trace bool) []decl {
	if trace {
		return perLayer
	}
	return endToEnd
}

// workloadTable lists the workloads in BENCHMARK.json's order: name, the
// one-line reason BENCHMARK.json carries, and the body. A body sets up
// through r.setup, measures rounds through r.round, and records checks,
// counters, digests and its own end-to-end values on r.
var workloadTable = []struct {
	name, why string
	body      func(r *run)
}{
	{"paper_suite", "all 24 registered experiments at scale 0.1, cold: the pccbench -exp all path every user runs; sim, netem, cc, core, tcp and the exp pool all active", paperSuite},
	{"wan_trial", "one warm 120-node transit-stub WAN, 200 routed PCC flows, backbone flap, one engine: steady-state scheduler and multi-hop forwarding, exp and serve idle", wanTrial},
	{"trial_churn", "a Monte-Carlo grid of tiny incast trials on 8 recurring seeds at default workers: pool, arena respec and Engine.Reset are half of every trial", trialChurn},
	{"serve_sweep", "in-process pccserve behind httptest: cold sweeps of never-seen seeds (compute, Cache.Put with fsync) then cached requests (Cache.Get), one closed-loop client", serveSweep},
}

// runSeconds is BENCHMARK.json's run_seconds: the length the op counts below
// are sized for on the reference box (2 cores).
const runSeconds = 20

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadTable {
		spec.Workloads = append(spec.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sizing fixes every op count of a run. Counts are a function of -size and
// -seconds only, never of how fast the code under test runs, so two commits
// always do the same work.
type sizing struct {
	SetupReps int `json:"setup_reps"`

	SuiteIDs    []string `json:"suite_ids"`
	SuiteScale  float64  `json:"suite_scale"`
	SuiteRounds int      `json:"suite_rounds"`

	WanNodes  int     `json:"wan_nodes"`
	WanFlows  int     `json:"wan_flows"`
	WanDur    float64 `json:"wan_sim_seconds"` // simulated seconds per trial
	WanRounds int     `json:"wan_rounds"`

	ChurnSweepTrials int `json:"churn_sweep_trials"` // trials per RunPointsScratch call
	ChurnSweeps      int `json:"churn_sweeps"`       // calls per round
	ChurnRounds      int `json:"churn_rounds"`

	ServeExps  []string `json:"serve_experiments"`
	ServeScale float64  `json:"serve_scale"`
	ServeCold  int      `json:"serve_cold"` // cold requests, one never-seen seed each
	ServeHits  int      `json:"serve_hits"` // cached requests over the same keysets

	ProbeDiv int `json:"probe_div"` // probe op counts are divided by this
}

// serveExperiments is the unit list of every serve_sweep request.
var serveExperiments = []string{"fig17", "fig11", "fig15", "fig6", "linkflap", "mixmtu", "fig10", "theory"}

// sizeFor returns the op counts. The full counts were fixed by measurement
// on the 2-core reference box so that each workload's measured region is
// close to -seconds there; see README.md for the measured round lengths.
func sizeFor(size string, seconds int) sizing {
	if size == "tiny" {
		return sizing{
			SetupReps: 2,
			SuiteIDs:  []string{"theory", "fig10", "mixmtu", "linkflap"}, SuiteScale: 0.02, SuiteRounds: 1,
			WanNodes: 48, WanFlows: 12, WanDur: 0.5, WanRounds: 2,
			ChurnSweepTrials: 48, ChurnSweeps: 4, ChurnRounds: 2,
			ServeExps: []string{"theory", "fig10"}, ServeScale: 0.02, ServeCold: 2, ServeHits: 40,
			ProbeDiv: 400,
		}
	}
	// scale stretches a count sized for runSeconds to the requested length.
	scale := func(n int) int {
		if v := n * seconds / runSeconds; v > 1 {
			return v
		}
		return 1
	}
	return sizing{
		SetupReps: 3,
		SuiteIDs:  exp.IDs(), SuiteScale: 0.1, SuiteRounds: scale(1),
		WanNodes: 120, WanFlows: 200, WanDur: 5, WanRounds: scale(9),
		ChurnSweepTrials: 2048, ChurnSweeps: 128, ChurnRounds: scale(11),
		ServeExps: serveExperiments, ServeScale: 0.1, ServeCold: scale(10), ServeHits: scale(40000),
		ProbeDiv: 1,
	}
}
