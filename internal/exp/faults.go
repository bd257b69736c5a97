package exp

import (
	"fmt"

	"pcc/internal/netem"
)

// faultAct is one resolved fault action: a kind applied to the links
// faultLinks[lo:hi] (plus a node for crash/restart) at time at.
// Partition/Heal events are resolved into one down/up act per link.
type faultAct struct {
	kind              netem.FaultKind
	at                float64
	lo, hi            int
	node              string
	rate, delay, loss float64
}

// installFaults materializes and schedules a fault plan on a just-respecced
// runner (engine at time zero). It draws exactly one runner RNG stream —
// flap jitter — and only when the spec carries a schedule, so unfaulted
// experiments' seed chains are untouched.
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
		r.Eng.PostArg(a.at, r.faultFn, a)
	}
}

// pushFaultAct resolves one fault event into an act over named links (or a
// node's incident links) and appends it.
func (r *Runner) pushFaultAct(kind netem.FaultKind, at float64, links []string, node string, ev *netem.FaultEvent) {
	a := faultAct{kind: kind, at: at, node: node, lo: len(r.faultLinks),
		rate: ev.RateBps, delay: ev.Delay, loss: ev.Loss}
	push := func(name string) {
		l := r.Topo.LinkByName(name)
		if l == nil {
			panic(fmt.Sprintf("exp: fault schedule references unknown link %q", name))
		}
		r.faultLinks = append(r.faultLinks, l)
	}
	if node != "" {
		for _, ls := range r.links {
			if ls.From == node || ls.To == node {
				push(ls.Name)
			}
		}
	} else {
		for _, name := range links {
			push(name)
		}
	}
	a.hi = len(r.faultLinks)
	r.faultActs = append(r.faultActs, a)
}

// runFault applies one act at its scheduled instant.
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
// node.
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
