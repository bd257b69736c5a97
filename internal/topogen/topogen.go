// Package topogen generates internet-scale network topologies for the
// experiment harness: programmatic graph generators (fat-tree datacenter,
// transit-stub WAN, LEO-satellite chain), a delay-matrix ingest path that
// replays measured all-pairs RTT grids as propagation delays, and
// deterministic shortest-path route computation — FlowSpec hop chains
// cannot be hand-written for a 500-node graph.
//
// Everything here is deterministic by construction: generators draw their
// delay distributions from a seeded local RNG in a fixed construction
// order, node and link orders are append orders, and the Router breaks
// shortest-path ties by (total delay, hop count, link index), so the same
// spec always yields byte-identical graphs and routes. Per-node shard
// hints record each generator's locality structure (a fat-tree pod, a
// transit domain with its stub networks, a LEO segment) for the sharded
// conservative engine's partitioner.
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
// add order), directed links, and per-node shard hints. Nodes and links
// are append-only; a Graph is immutable once handed to a Router.
type Graph struct {
	nodes   []string
	hints   []int
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

// AddNode interns a node with a shard hint and returns its dense id.
// Re-adding an existing node returns its id and must agree on the hint.
func (g *Graph) AddNode(name string, hint int) int {
	if i, ok := g.nodeIdx[name]; ok {
		if g.hints[i] != hint {
			panic(fmt.Sprintf("topogen: node %q re-added with hint %d (was %d)", name, hint, g.hints[i]))
		}
		return i
	}
	i := len(g.nodes)
	g.nodeIdx[name] = i
	g.nodes = append(g.nodes, name)
	g.hints = append(g.hints, hint)
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
// registered as name, b→a as name+"~" (the convention the generators use
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

// ShardHints materializes the node→hint map the harness's partitioner
// consumes: nodes sharing a hint value are kept on one shard.
func (g *Graph) ShardHints() map[string]int {
	m := make(map[string]int, len(g.nodes))
	for i, name := range g.nodes {
		m[name] = g.hints[i]
	}
	return m
}
