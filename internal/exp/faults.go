package exp

import (
	"fmt"

	"pcc/internal/netem"
)

// faultAct is one resolved fault action: link taken down (or brought back
// up) at time at. Partition/Heal events are resolved into one act per link.
type faultAct struct {
	at   float64
	link *netem.Link
	down bool
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
	for i := range r.faultEvs {
		ev := &r.faultEvs[i]
		switch ev.Kind {
		case netem.FaultLinkDown, netem.FaultLinkUp:
			r.pushFaultAct(ev.At, ev.Link, ev.Kind == netem.FaultLinkDown)
		case netem.FaultPartition, netem.FaultHeal:
			for _, name := range ev.Links {
				r.pushFaultAct(ev.At, name, ev.Kind == netem.FaultPartition)
			}
		}
	}
	if r.faultFn == nil {
		r.faultFn = func(a any) {
			act := a.(*faultAct)
			act.link.SetDown(act.down)
		}
	}
	// Schedule in a second pass: faultActs is final now, so interior
	// pointers into it stay valid for the whole trial.
	for i := range r.faultActs {
		a := &r.faultActs[i]
		r.Eng.PostArg(a.at, r.faultFn, a)
	}
}

// pushFaultAct resolves the named link and appends the act that takes it down
// (or up) at time at.
func (r *Runner) pushFaultAct(at float64, link string, down bool) {
	l := r.Topo.LinkByName(link)
	if l == nil {
		panic(fmt.Sprintf("exp: fault schedule references unknown link %q", link))
	}
	r.faultActs = append(r.faultActs, faultAct{at: at, link: l, down: down})
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
