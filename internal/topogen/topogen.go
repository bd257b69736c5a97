// Package topogen generates internet-scale network topologies for the
// experiment harness: a GT-ITM-style transit-stub WAN generator
// (TransitStub) and deterministic shortest-path route computation (Router)
// — FlowSpec hop chains cannot be hand-written for a 500-node graph.
//
// Everything here is deterministic by construction: the generator draws its
// delay distributions from a seeded local RNG in a fixed construction
// order, node and link orders are append orders, and the Router breaks
// shortest-path ties by (total delay, hop count, link index), so the same
// spec always yields byte-identical graphs and routes.
package topogen

import "fmt"

// Link is one directed link of a generated graph. Fields mirror the
// harness's LinkSpec so conversion is a field copy.
type Link struct {
	// Name registers the link for route references; unique per graph.
	Name string
	// From/To are node names; both must be added before the link.
	From, To string
	// RateMbps is the link capacity in Mbps.
	RateMbps float64
	// Delay is the one-way propagation delay, seconds.
	Delay float64
	// Loss is the Bernoulli wire-loss probability.
	Loss float64
	// BufBytes is the link queue capacity in bytes.
	BufBytes int
}

// Graph is a generated topology: interned nodes (dense integer ids in
// add order) and directed links. Nodes and links are append-only; a Graph
// is immutable once handed to a Router.
type Graph struct {
	nodes   []string
	nodeIdx map[string]int

	links   []Link
	linkIdx map[string]int
	// out[v] lists the indices of v's outgoing links in add order — the
	// adjacency the Router relaxes, so route tie-breaking follows link
	// registration order.
	out [][]int32
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodeIdx: map[string]int{}, linkIdx: map[string]int{}}
}

// AddNode interns a node and returns its dense id. Re-adding an existing
// node returns its id.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.nodeIdx[name]; ok {
		return i
	}
	i := len(g.nodes)
	g.nodeIdx[name] = i
	g.nodes = append(g.nodes, name)
	g.out = append(g.out, nil)
	return i
}

// AddLink appends a directed link. Both endpoints must already be interned
// and the name must be unique. Returns the link's dense index.
func (g *Graph) AddLink(l Link) int {
	if _, dup := g.linkIdx[l.Name]; dup {
		panic(fmt.Sprintf("topogen: duplicate link %q", l.Name))
	}
	from, ok := g.nodeIdx[l.From]
	if !ok {
		panic(fmt.Sprintf("topogen: link %q from unknown node %q", l.Name, l.From))
	}
	if _, ok := g.nodeIdx[l.To]; !ok {
		panic(fmt.Sprintf("topogen: link %q to unknown node %q", l.Name, l.To))
	}
	i := len(g.links)
	g.linkIdx[l.Name] = i
	g.links = append(g.links, l)
	g.out[from] = append(g.out[from], int32(i))
	return i
}

// AddDuplex adds a symmetric pair of directed links between a and b: a→b
// registered as name, b→a as name+"~" (the convention TransitStub uses
// for reverse directions).
func (g *Graph) AddDuplex(name, a, b string, rateMbps, delay, loss float64, bufBytes int) {
	g.AddLink(Link{Name: name, From: a, To: b, RateMbps: rateMbps, Delay: delay, Loss: loss, BufBytes: bufBytes})
	g.AddLink(Link{Name: name + "~", From: b, To: a, RateMbps: rateMbps, Delay: delay, Loss: loss, BufBytes: bufBytes})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the directed link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the name of node i (add order).
func (g *Graph) Node(i int) string { return g.nodes[i] }

// Links returns the link slice in add order. Callers must not mutate it.
func (g *Graph) Links() []Link { return g.links }

// Nodes returns the node names in add order. Callers must not mutate it.
func (g *Graph) Nodes() []string { return g.nodes }
