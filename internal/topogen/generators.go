package topogen

import (
	"fmt"
	"math/rand"
)

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
	// Seed drives the delay draws. 0 means 1.
	Seed int64
}

// linkBufBytes is the queue capacity of every link TransitStub generates.
const linkBufBytes = 512 << 10

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
			delay := 0.002 + float64(0.006*rng.Float64())
			g.AddDuplex(fmt.Sprintf("t%d:%d-%d", d, i, j), tr(d, i), tr(d, j),
				s.TransitRateMbps, delay, 0, linkBufBytes)
		}
	}
	// Inter-domain ring over each domain's router 0, plus a chord for path
	// diversity on rings wide enough to have one.
	for d := 0; d < s.Transits; d++ {
		e := (d + 1) % s.Transits
		if e == d || (s.Transits == 2 && d == 1) {
			continue
		}
		delay := 0.010 + float64(0.030*rng.Float64())
		g.AddDuplex(fmt.Sprintf("x%d", d), tr(d, 0), tr(e, 0),
			s.TransitRateMbps, delay, 0, linkBufBytes)
	}
	if s.Transits >= 4 && s.TransitRouters >= 2 {
		delay := 0.010 + float64(0.030*rng.Float64())
		g.AddDuplex("xc", tr(0, 1), tr(s.Transits/2, 1),
			s.TransitRateMbps, delay, 0, linkBufBytes)
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
				access := 0.001 + float64(0.004*rng.Float64())
				g.AddDuplex(fmt.Sprintf("a%d.%d.%d", d, i, k), tr(d, i), sr(0),
					s.StubRateMbps, access, 0, linkBufBytes)
				for j := 1; j < s.StubRouters; j++ {
					delay := 0.0005 + float64(0.0015*rng.Float64())
					g.AddDuplex(fmt.Sprintf("s%d.%d.%d:%d", d, i, k, j), sr(j-1), sr(j),
						s.StubRateMbps, delay, 0, linkBufBytes)
				}
			}
		}
	}
	return g
}
