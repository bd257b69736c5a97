package topogen

import (
	"fmt"
	"math"

	"pcc/internal/netem"
)

// Router computes deterministic shortest-path routes over a generated
// graph, caching one shortest-path tree per source node. Determinism
// rules: a path minimizes, in order, (1) total propagation delay, (2) hop
// count, (3) the index of the entering link at the first divergence —
// adjacency is relaxed in link add order, so equal-delay equal-length
// alternatives resolve to the earliest-registered links. The same graph
// therefore always yields the same hop chains, which is what keeps
// generated experiments byte-identical across runs and workers.
//
// A Router is not safe for concurrent use: drivers compute all routes
// up front (before fanning trials out) and share the resulting hop
// chains read-only.
type Router struct {
	g     *Graph
	trees map[int][]int32
}

// NewRouter returns a route computer for g. The graph must not grow
// afterwards (trees are cached per source).
func NewRouter(g *Graph) *Router {
	return &Router{g: g, trees: map[int][]int32{}}
}

// pqItem is one candidate in the Dijkstra frontier. Ordering is the
// route-determinism rule: delay, then hops, then node id (the node id
// tie-break only fixes pop order between distinct nodes; equal-cost paths
// to one node are resolved at relaxation time by link index).
type pqItem struct {
	dist float64
	hops int32
	node int32
}

func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// tree returns (building if needed) the shortest-path tree rooted at src:
// per node, the index of the link entering it on the best path, -1 for
// the source and unreachable nodes.
func (r *Router) tree(src int) []int32 {
	if t, ok := r.trees[src]; ok {
		return t
	}
	g := r.g
	n := len(g.nodes)
	dist := make([]float64, n)
	hops := make([]int32, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	// Hand-rolled binary heap: no container/heap interface boxing on a
	// path that runs once per distinct source.
	heap := []pqItem{{node: int32(src)}}
	push := func(it pqItem) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !pqLess(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() pqItem {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, rr := 2*i+1, 2*i+2
			m := i
			if l < last && pqLess(heap[l], heap[m]) {
				m = l
			}
			if rr < last && pqLess(heap[rr], heap[m]) {
				m = rr
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}

	for len(heap) > 0 {
		it := pop()
		u := int(it.node)
		if done[u] {
			continue
		}
		done[u] = true
		for _, li := range g.out[u] {
			l := &g.links[li]
			v := g.nodeIdx[l.To]
			d := dist[u] + l.Delay
			h := hops[u] + 1
			better := d < dist[v] ||
				(d == dist[v] && (h < hops[v] || (h == hops[v] && li < prev[v])))
			if !better || done[v] {
				continue
			}
			dist[v] = d
			hops[v] = h
			prev[v] = li
			push(pqItem{dist: d, hops: h, node: int32(v)})
		}
	}
	r.trees[src] = prev
	return prev
}

// Route returns the shortest-path hop chain from src to dst as link hops,
// ready for FlowSpec.FwdRoute/RevRoute (reverse paths are a separate
// Route(dst, src): generated graphs are symmetric, but the rule does not
// assume it). It panics on unknown nodes or an unreachable destination —
// generated graphs are connected, so either is a generator bug.
func (r *Router) Route(src, dst string) []netem.HopSpec {
	names := r.PathLinks(src, dst)
	hops := make([]netem.HopSpec, len(names))
	for i, name := range names {
		hops[i] = netem.LinkHop(name)
	}
	return hops
}

// PathLinks returns the link names along the shortest path from src to
// dst, in traversal order. Same determinism rules and panics as Route.
func (r *Router) PathLinks(src, dst string) []string {
	g := r.g
	s, ok := g.nodeIdx[src]
	if !ok {
		panic(fmt.Sprintf("topogen: route from unknown node %q", src))
	}
	d, ok := g.nodeIdx[dst]
	if !ok {
		panic(fmt.Sprintf("topogen: route to unknown node %q", dst))
	}
	if s == d {
		return nil
	}
	prev := r.tree(s)
	var rev []string
	for v := d; v != s; {
		li := prev[v]
		if li < 0 {
			panic(fmt.Sprintf("topogen: no route from %q to %q (disconnected graph)", src, dst))
		}
		l := &g.links[li]
		rev = append(rev, l.Name)
		v = g.nodeIdx[l.From]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathDelay returns the summed one-way propagation delay of the shortest
// path from src to dst (0 when src == dst).
func (r *Router) PathDelay(src, dst string) float64 {
	sum := 0.0
	for _, name := range r.PathLinks(src, dst) {
		sum += r.g.links[r.g.linkIdx[name]].Delay
	}
	return sum
}
