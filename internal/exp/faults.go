package exp

import (
	"fmt"
	"sort"
	"strings"

	"pcc/internal/netem"
)

// faultAct is one resolved fault action: a kind applied to the links
// faultLinks[lo:hi] (plus a node for crash/restart), scheduled at time at on
// the engine of shard. Partition/Heal events are resolved into per-link
// down/up acts so each act touches exactly one shard's links.
type faultAct struct {
	kind              netem.FaultKind
	at                float64
	lo, hi            int
	node              string
	shard             int
	rate, delay, loss float64
}

// appendFaultPins adds zero-delay pin edges for every link a fault schedule
// touches — directly by name, or by incidence to a crashed node — so the
// partitioner contracts each such link's endpoints onto one shard and the
// fault act can run entirely on that link's home engine. Pinning is
// per-link: a partition cutting links in distant parts of the graph pins
// each link locally without collapsing the shards between them.
func appendFaultPins(edges []netem.Edge, ts TopologySpec) []netem.Edge {
	if ts.Faults.Empty() {
		return edges
	}
	byName := make(map[string]LinkSpec, len(ts.Links))
	for _, ls := range ts.Links {
		byName[ls.Name] = ls
	}
	pinLink := func(name string) {
		ls, ok := byName[name]
		if !ok {
			panic(fmt.Sprintf("exp: fault schedule references unknown link %q", name))
		}
		edges = append(edges, netem.Edge{From: ls.From, To: ls.To})
	}
	pinNode := func(node string) {
		for _, ls := range ts.Links {
			if ls.From == node || ls.To == node {
				edges = append(edges, netem.Edge{From: ls.From, To: ls.To})
			}
		}
	}
	for _, ev := range ts.Faults.Events {
		switch ev.Kind {
		case netem.FaultLinkDown, netem.FaultLinkUp, netem.FaultDegrade:
			pinLink(ev.Link)
		case netem.FaultPartition, netem.FaultHeal:
			for _, name := range ev.Links {
				pinLink(name)
			}
		case netem.FaultNodeCrash, netem.FaultNodeRestart:
			pinNode(ev.Node)
		}
	}
	for _, f := range ts.Faults.Flaps {
		pinLink(f.Link)
	}
	return edges
}

// faultSig summarizes the pin-relevant structure of a schedule: the sorted
// set of link and node names it touches. Two schedules with the same
// signature pin the same edges, so an arena-cached runner may be re-specced
// between them even though event times and parameters differ per trial.
func faultSig(s *netem.FaultSchedule) string {
	if s.Empty() {
		return ""
	}
	var names []string
	for _, ev := range s.Events {
		if ev.Link != "" {
			names = append(names, "l:"+ev.Link)
		}
		for _, n := range ev.Links {
			names = append(names, "l:"+n)
		}
		if ev.Node != "" {
			names = append(names, "n:"+ev.Node)
		}
	}
	for _, f := range s.Flaps {
		names = append(names, "l:"+f.Link)
	}
	sort.Strings(names)
	var b strings.Builder
	prev := ""
	for _, n := range names {
		if n == prev {
			continue
		}
		b.WriteString(n)
		b.WriteByte('\x00')
		prev = n
	}
	return b.String()
}

// installFaults materializes and schedules a fault plan on a just-respecced
// runner (engines at time zero). It draws exactly one runner RNG stream —
// flap jitter — and only when the spec carries a schedule, so unfaulted
// experiments' seed chains are untouched. Acts are resolved
// per shard: a partition cutting links on several shards becomes one
// down-act per link, each scheduled on its link's home engine.
func (r *Runner) installFaults(s *netem.FaultSchedule) {
	r.faultSpec = s
	if s.Empty() {
		return
	}
	jrng := r.NextRand()
	r.faultEvs = s.Materialize(r.faultEvs[:0], jrng)
	r.faultActs = r.faultActs[:0]
	r.faultLinks = r.faultLinks[:0]
	for i := range r.faultEvs {
		ev := &r.faultEvs[i]
		switch ev.Kind {
		case netem.FaultLinkDown, netem.FaultLinkUp:
			r.pushFaultAct(ev.Kind, ev.At, []string{ev.Link}, "", ev)
		case netem.FaultDegrade:
			r.pushFaultAct(netem.FaultDegrade, ev.At, []string{ev.Link}, "", ev)
		case netem.FaultPartition:
			for _, name := range ev.Links {
				r.pushFaultAct(netem.FaultLinkDown, ev.At, []string{name}, "", ev)
			}
		case netem.FaultHeal:
			for _, name := range ev.Links {
				r.pushFaultAct(netem.FaultLinkUp, ev.At, []string{name}, "", ev)
			}
		case netem.FaultNodeCrash, netem.FaultNodeRestart:
			r.pushFaultAct(ev.Kind, ev.At, nil, ev.Node, ev)
		}
	}
	if r.faultFn == nil {
		r.faultFn = func(a any) { r.runFault(a.(*faultAct)) }
	}
	// Schedule in a second pass: faultActs is final now, so interior
	// pointers into it stay valid for the whole trial.
	for i := range r.faultActs {
		a := &r.faultActs[i]
		r.Engines[a.shard].PostArg(a.at, r.faultFn, a)
	}
}

// pushFaultAct resolves one fault event into an act over named links (or a
// node's incident links) and appends it. All of an act's links must live on
// one shard; the fault pins added at build time guarantee that for exactly
// the links a schedule references, so a violation means the respec path was
// handed a schedule touching links the build never pinned.
func (r *Runner) pushFaultAct(kind netem.FaultKind, at float64, links []string, node string, ev *netem.FaultEvent) {
	a := faultAct{kind: kind, at: at, node: node, lo: len(r.faultLinks), shard: -1,
		rate: ev.RateBps, delay: ev.Delay, loss: ev.Loss}
	push := func(name string) {
		l := r.Topo.LinkByName(name)
		if l == nil {
			panic(fmt.Sprintf("exp: fault schedule references unknown link %q", name))
		}
		from, _ := r.Topo.LinkEnds(name)
		shard := r.Topo.NodeShard(from)
		if a.shard < 0 {
			a.shard = shard
		} else if a.shard != shard {
			panic(fmt.Sprintf("exp: fault act spans shards %d and %d (link %q not pinned at build — did the schedule's target set change without a rebuild?)", a.shard, shard, name))
		}
		r.faultLinks = append(r.faultLinks, l)
	}
	if node != "" {
		a.shard = r.Topo.NodeShard(node)
		for _, ls := range r.built.Links {
			if ls.From == node || ls.To == node {
				push(ls.Name)
			}
		}
	} else {
		for _, name := range links {
			push(name)
		}
	}
	if a.shard < 0 {
		a.shard = 0
	}
	a.hi = len(r.faultLinks)
	r.faultActs = append(r.faultActs, a)
}

// runFault applies one act at its scheduled instant, on the engine of the
// shard every target link lives on.
func (r *Runner) runFault(a *faultAct) {
	switch a.kind {
	case netem.FaultLinkDown:
		for _, l := range r.faultLinks[a.lo:a.hi] {
			l.SetDown(true)
		}
	case netem.FaultLinkUp:
		for _, l := range r.faultLinks[a.lo:a.hi] {
			l.SetDown(false)
		}
	case netem.FaultDegrade:
		for _, l := range r.faultLinks[a.lo:a.hi] {
			if a.rate > 0 {
				l.SetRate(a.rate)
			}
			if a.delay >= 0 {
				l.SetDelay(a.delay)
			}
			if a.loss >= 0 {
				l.SetLossRate(a.loss)
			}
		}
	case netem.FaultNodeCrash:
		for _, l := range r.faultLinks[a.lo:a.hi] {
			l.SetDown(true)
		}
		r.freezeNode(a.node, true)
	case netem.FaultNodeRestart:
		for _, l := range r.faultLinks[a.lo:a.hi] {
			l.SetDown(false)
		}
		r.freezeNode(a.node, false)
	}
}

// freezeNode freezes or resumes every sender and receiver hosted at the
// node. The endpoints of a flow live on the shards its routes start and end
// on — the same shards the crashed node's links were pinned to — so this
// runs engine-locally.
func (r *Runner) freezeNode(node string, frozen bool) {
	for _, f := range r.Flows {
		if f.srcNode == node {
			switch {
			case f.RS != nil && frozen:
				f.RS.Freeze()
			case f.RS != nil:
				f.RS.Unfreeze()
			case f.WS != nil && frozen:
				f.WS.Freeze()
			case f.WS != nil:
				f.WS.Unfreeze()
			}
		}
		if f.dstNode == node {
			if frozen {
				f.Recv.Freeze()
			} else {
				f.Recv.Unfreeze()
			}
		}
	}
}

// FaultEvents returns the materialized, time-sorted fault event list of the
// current trial (flap jitter applied), so drivers can compute fault-relative
// metrics like recovery time after the last heal. Nil when the runner has no
// fault schedule.
func (r *Runner) FaultEvents() []netem.FaultEvent {
	if r.faultSpec.Empty() {
		return nil
	}
	return r.faultEvs
}
