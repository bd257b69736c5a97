package topogen

import (
	"strings"
	"testing"
)

func TestTransitStubShape(t *testing.T) {
	s := TransitStubSpec{Transits: 4, TransitRouters: 3, StubsPerRouter: 2, StubRouters: 3, Seed: 7}
	g := TransitStub(s)
	wantNodes := 4*3 + 4*3*2*3 // 12 transit + 72 stub
	if got := g.NumNodes(); got != wantNodes {
		t.Fatalf("nodes = %d, want %d", got, wantNodes)
	}
	// Every node reachable from every other (spot-check from two roots).
	r := NewRouter(g)
	for _, src := range []string{"t0.0", "s3.2.1.2"} {
		for _, dst := range g.Nodes() {
			if dst == src {
				continue
			}
			if len(r.PathLinks(src, dst)) == 0 {
				t.Fatalf("no path %s → %s", src, dst)
			}
		}
	}
	// The flappable backbone ring links exist under their stable names.
	for _, name := range []string{"x0", "x3", "xc"} {
		found := false
		for _, l := range g.Links() {
			if l.Name == name {
				found = true
				if l.Delay < 0.010 {
					t.Fatalf("backbone link %s delay %v below the 10 ms floor", name, l.Delay)
				}
			}
		}
		if !found {
			t.Fatalf("backbone link %s missing", name)
		}
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	s := TransitStubSpec{Transits: 3, Seed: 42}
	a, b := TransitStub(s), TransitStub(s)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestRouterShortestAndTieBreak(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddNode(n)
	}
	add := func(name, from, to string, delay float64) {
		g.AddLink(Link{Name: name, From: from, To: to, RateMbps: 100, Delay: delay, BufBytes: 1 << 16})
	}
	// Two equal-delay 2-hop paths a→d (via b and via c); the b path's links
	// were registered first, so the tie must resolve to it. A direct a→d
	// link is slower and must lose despite fewer hops.
	add("ab", "a", "b", 0.010)
	add("bd", "b", "d", 0.010)
	add("ac", "a", "c", 0.010)
	add("cd", "c", "d", 0.010)
	add("ad", "a", "d", 0.050)
	r := NewRouter(g)
	got := strings.Join(r.PathLinks("a", "d"), ",")
	if got != "ab,bd" {
		t.Fatalf("a→d path = %s, want ab,bd (delay first, then add-order tie-break)", got)
	}
	// Equal delay, fewer hops wins: make a 1-hop path of the same total delay.
	add("ad2", "a", "d", 0.020)
	r2 := NewRouter(g)
	if got := strings.Join(r2.PathLinks("a", "d"), ","); got != "ad2" {
		t.Fatalf("a→d path = %s, want ad2 (hop count breaks delay ties)", got)
	}
}

func TestRouteEmitsLinkHops(t *testing.T) {
	// A ground-satellite-satellite-ground chain: three duplex links.
	g := New()
	for _, n := range []string{"gs0", "sat0", "sat1", "gs1"} {
		g.AddNode(n)
	}
	g.AddDuplex("up0", "gs0", "sat0", 200, 0.003, 0, 1<<16)
	g.AddDuplex("isl0", "sat0", "sat1", 500, 0.010, 0, 1<<16)
	g.AddDuplex("dn0", "sat1", "gs1", 200, 0.003, 0, 1<<16)
	r := NewRouter(g)
	hops := r.Route("gs0", "gs1")
	if len(hops) != 3 {
		t.Fatalf("route length = %d, want 3", len(hops))
	}
	for _, h := range hops {
		if h.Link == "" || h.Delay != 0 || h.Loss != 0 {
			t.Fatalf("route hop %+v is not a pure link hop", h)
		}
	}
	// Reverse route uses the reverse links, in reverse order.
	rev := r.PathLinks("gs1", "gs0")
	if rev[0] != "dn0~" || rev[len(rev)-1] != "up0~" {
		t.Fatalf("reverse path = %v, want dn0~ … up0~", rev)
	}
}

func TestGraphPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	g := New()
	g.AddNode("a")
	g.AddNode("b")
	g.AddLink(Link{Name: "ab", From: "a", To: "b", Delay: 0.001})
	mustPanic("duplicate link", func() {
		g.AddLink(Link{Name: "ab", From: "a", To: "b", Delay: 0.001})
	})
	mustPanic("unknown endpoint", func() {
		g.AddLink(Link{Name: "ax", From: "a", To: "x", Delay: 0.001})
	})
	mustPanic("disconnected route", func() {
		g2 := New()
		g2.AddNode("p")
		g2.AddNode("q")
		NewRouter(g2).PathLinks("p", "q")
	})
}
