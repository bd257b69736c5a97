package topogen

import (
	"fmt"
	"math/rand"
)

// The three generator families of ROADMAP item 1. Each draws its delay
// jitter from a local RNG seeded by the spec in a fixed construction
// order, so a spec maps to exactly one graph.

// FatTreeSpec parameterizes a k-ary fat-tree datacenter fabric
// (Al-Fares et al.): (k/2)² core switches, k pods of k/2 aggregation and
// k/2 edge switches, k/2 hosts per edge switch — k³/4 hosts total.
type FatTreeSpec struct {
	// K is the pod count / switch radix; even, >= 2. 0 means 4.
	K int
	// HostRateMbps is the host↔edge link rate. 0 means 1000.
	HostRateMbps float64
	// FabricRateMbps is the switch↔switch link rate. 0 means 1000.
	FabricRateMbps float64
	// Delay is the per-link one-way propagation delay, seconds.
	// 0 means 100 µs.
	Delay float64
	// BufBytes is the per-link queue capacity. 0 means 256 KB.
	BufBytes int
}

// FatTree generates the fabric. Node names: cores "c<i>", per-pod
// aggregation "a<p>.<i>", edge "e<p>.<i>", hosts "h<p>.<e>.<j>". Links are
// duplex pairs named "ft:<a>|<b>" (reverse "~"-suffixed).
func FatTree(s FatTreeSpec) *Graph {
	if s.K == 0 {
		s.K = 4
	}
	if s.K < 2 || s.K%2 != 0 {
		panic(fmt.Sprintf("topogen: fat-tree K=%d must be even and >= 2", s.K))
	}
	if s.HostRateMbps == 0 {
		s.HostRateMbps = 1000
	}
	if s.FabricRateMbps == 0 {
		s.FabricRateMbps = 1000
	}
	if s.Delay == 0 {
		s.Delay = 100e-6
	}
	if s.BufBytes == 0 {
		s.BufBytes = 256 << 10
	}
	half := s.K / 2
	g := New()
	for i := 0; i < half*half; i++ {
		g.AddNode(fmt.Sprintf("c%d", i))
	}
	for p := 0; p < s.K; p++ {
		for i := 0; i < half; i++ {
			g.AddNode(fmt.Sprintf("a%d.%d", p, i))
		}
		for i := 0; i < half; i++ {
			g.AddNode(fmt.Sprintf("e%d.%d", p, i))
		}
		for e := 0; e < half; e++ {
			for j := 0; j < half; j++ {
				g.AddNode(fmt.Sprintf("h%d.%d.%d", p, e, j))
			}
		}
	}
	duplex := func(a, b string, rate float64) {
		g.AddDuplex("ft:"+a+"|"+b, a, b, rate, s.Delay, 0, s.BufBytes)
	}
	for p := 0; p < s.K; p++ {
		for e := 0; e < half; e++ {
			edge := fmt.Sprintf("e%d.%d", p, e)
			for j := 0; j < half; j++ {
				duplex(fmt.Sprintf("h%d.%d.%d", p, e, j), edge, s.HostRateMbps)
			}
			for a := 0; a < half; a++ {
				duplex(edge, fmt.Sprintf("a%d.%d", p, a), s.FabricRateMbps)
			}
		}
		// Aggregation switch i of every pod uplinks to the i-th stripe of
		// cores, the standard fat-tree wiring.
		for a := 0; a < half; a++ {
			agg := fmt.Sprintf("a%d.%d", p, a)
			for c := a * half; c < (a+1)*half; c++ {
				duplex(agg, fmt.Sprintf("c%d", c), s.FabricRateMbps)
			}
		}
	}
	return g
}

// TransitStubSpec parameterizes a GT-ITM-style transit-stub WAN: transit
// domains of backbone routers joined in a ring, each transit router
// serving stub domains of access routers. Delays are drawn from wide-area
// ranges (inter-domain 10–40 ms, intra-domain 2–8 ms, stub access
// 1–5 ms, intra-stub 0.5–2 ms) by the seeded RNG.
type TransitStubSpec struct {
	// Transits is the transit (backbone) domain count. 0 means 3.
	Transits int
	// TransitRouters is the router count per transit domain. 0 means 3.
	TransitRouters int
	// StubsPerRouter is the stub domain count hanging off each transit
	// router. 0 means 2.
	StubsPerRouter int
	// StubRouters is the router count per stub domain. 0 means 3.
	StubRouters int
	// TransitRateMbps is the backbone link rate. 0 means 2000.
	TransitRateMbps float64
	// StubRateMbps is the stub access/internal link rate. 0 means 200.
	StubRateMbps float64
	// BufBytes is the per-link queue capacity. 0 means 512 KB.
	BufBytes int
	// Seed drives the delay draws. 0 means 1.
	Seed int64
}

// TransitStub generates the WAN. Node names: transit routers "t<d>.<i>",
// stub routers "s<d>.<i>.<k>.<j>" (domain d, transit router i, stub k,
// router j). Inter-domain backbone links are named "x<d>" (ring edge from
// domain d, reverse "x<d>~") plus a "xc" chord when Transits >= 4 — the
// stable names fault schedules target.
func TransitStub(s TransitStubSpec) *Graph {
	if s.Transits == 0 {
		s.Transits = 3
	}
	if s.TransitRouters == 0 {
		s.TransitRouters = 3
	}
	if s.StubsPerRouter == 0 {
		s.StubsPerRouter = 2
	}
	if s.StubRouters == 0 {
		s.StubRouters = 3
	}
	if s.Transits < 1 || s.TransitRouters < 1 || s.StubsPerRouter < 0 || s.StubRouters < 1 {
		panic(fmt.Sprintf("topogen: invalid transit-stub shape %+v", s))
	}
	if s.TransitRateMbps == 0 {
		s.TransitRateMbps = 2000
	}
	if s.StubRateMbps == 0 {
		s.StubRateMbps = 200
	}
	if s.BufBytes == 0 {
		s.BufBytes = 512 << 10
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := New()
	tr := func(d, i int) string { return fmt.Sprintf("t%d.%d", d, i) }
	for d := 0; d < s.Transits; d++ {
		for i := 0; i < s.TransitRouters; i++ {
			g.AddNode(tr(d, i))
		}
	}
	// Intra-domain ring (a single pair when only two routers).
	for d := 0; d < s.Transits; d++ {
		for i := 0; i < s.TransitRouters; i++ {
			j := (i + 1) % s.TransitRouters
			if j == i || (s.TransitRouters == 2 && i == 1) {
				continue
			}
			delay := 0.002 + 0.006*rng.Float64()
			g.AddDuplex(fmt.Sprintf("t%d:%d-%d", d, i, j), tr(d, i), tr(d, j),
				s.TransitRateMbps, delay, 0, s.BufBytes)
		}
	}
	// Inter-domain ring over each domain's router 0, plus a chord for path
	// diversity on rings wide enough to have one.
	for d := 0; d < s.Transits; d++ {
		e := (d + 1) % s.Transits
		if e == d || (s.Transits == 2 && d == 1) {
			continue
		}
		delay := 0.010 + 0.030*rng.Float64()
		g.AddDuplex(fmt.Sprintf("x%d", d), tr(d, 0), tr(e, 0),
			s.TransitRateMbps, delay, 0, s.BufBytes)
	}
	if s.Transits >= 4 && s.TransitRouters >= 2 {
		delay := 0.010 + 0.030*rng.Float64()
		g.AddDuplex("xc", tr(0, 1), tr(s.Transits/2, 1),
			s.TransitRateMbps, delay, 0, s.BufBytes)
	}
	// Stub domains: router 0 of each stub attaches to its transit router,
	// the rest chain behind it.
	for d := 0; d < s.Transits; d++ {
		for i := 0; i < s.TransitRouters; i++ {
			for k := 0; k < s.StubsPerRouter; k++ {
				sr := func(j int) string { return fmt.Sprintf("s%d.%d.%d.%d", d, i, k, j) }
				for j := 0; j < s.StubRouters; j++ {
					g.AddNode(sr(j))
				}
				access := 0.001 + 0.004*rng.Float64()
				g.AddDuplex(fmt.Sprintf("a%d.%d.%d", d, i, k), tr(d, i), sr(0),
					s.StubRateMbps, access, 0, s.BufBytes)
				for j := 1; j < s.StubRouters; j++ {
					delay := 0.0005 + 0.0015*rng.Float64()
					g.AddDuplex(fmt.Sprintf("s%d.%d.%d:%d", d, i, k, j), sr(j-1), sr(j),
						s.StubRateMbps, delay, 0, s.BufBytes)
				}
			}
		}
	}
	return g
}

// LEOChainSpec parameterizes a low-earth-orbit satellite relay chain: a
// ground uplink, a chain of inter-satellite links, a ground downlink.
type LEOChainSpec struct {
	// Sats is the satellite count. 0 means 8.
	Sats int
	// UpRateMbps is the ground↔satellite link rate. 0 means 200.
	UpRateMbps float64
	// ISLRateMbps is the inter-satellite link rate. 0 means 500.
	ISLRateMbps float64
	// BufBytes is the per-link queue capacity. 0 means 256 KB.
	BufBytes int
	// Seed drives the ISL delay draws. 0 means 1.
	Seed int64
}

// LEOChain generates the chain. Node names: "gs0", "sat<i>", "gs1"; links
// "up0", "isl<i>", "dn0" (duplex, reverse "~"-suffixed). Ground↔satellite
// delay is 3 ms, ISL delays draw 7–13 ms.
func LEOChain(s LEOChainSpec) *Graph {
	if s.Sats == 0 {
		s.Sats = 8
	}
	if s.Sats < 1 {
		panic(fmt.Sprintf("topogen: LEO chain needs >= 1 satellite, got %d", s.Sats))
	}
	if s.UpRateMbps == 0 {
		s.UpRateMbps = 200
	}
	if s.ISLRateMbps == 0 {
		s.ISLRateMbps = 500
	}
	if s.BufBytes == 0 {
		s.BufBytes = 256 << 10
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := New()
	g.AddNode("gs0")
	for i := 0; i < s.Sats; i++ {
		g.AddNode(fmt.Sprintf("sat%d", i))
	}
	g.AddNode("gs1")
	g.AddDuplex("up0", "gs0", "sat0", s.UpRateMbps, 0.003, 0, s.BufBytes)
	for i := 0; i+1 < s.Sats; i++ {
		delay := 0.007 + 0.006*rng.Float64()
		g.AddDuplex(fmt.Sprintf("isl%d", i), fmt.Sprintf("sat%d", i), fmt.Sprintf("sat%d", i+1),
			s.ISLRateMbps, delay, 0, s.BufBytes)
	}
	g.AddDuplex("dn0", fmt.Sprintf("sat%d", s.Sats-1), "gs1", s.UpRateMbps, 0.003, 0, s.BufBytes)
	return g
}
