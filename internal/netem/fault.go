package netem

import (
	"fmt"
	"math/rand"

	"pcc/internal/sim"
)

// Fault injection: deterministic, timed hard faults layered on top of the
// smooth variation VaryingSpec models. A FaultSchedule is attached to a
// topology spec (see internal/exp) and a FaultInjector runs it as plain
// engine events. An explicit event is one engine event. A flap is one
// self-re-arming event, the way StartVarying re-draws the path: each phase
// switches the link, draws the next phase's jitter and posts that phase at
// its absolute time. Nothing is unfolded ahead of the run, so installing a
// schedule costs the same whatever its Until, and every act after the first
// runs under the engine's stop poll.
//
// Determinism: Install posts the explicit events in schedule order, then
// each flap's first down, so same-instant acts keep their schedule order,
// explicit events first. Jitter comes from one seeded stream shared by the
// schedule's flaps and drawn as each phase runs; with one flap that is its
// phase order.
//
// Fault semantics at the link level are implemented by Link.SetDown: drop
// the in-flight train into the fault ledger, park the serializer, keep the
// queue.

// FaultEvent is one timed act on a set of links: at At every link in Links
// goes down (Down) or comes back up. A partition cuts several links at once;
// a one-link event takes a single link down or up.
type FaultEvent struct {
	// At is the absolute simulation time the act fires.
	At float64
	// Down takes the links down; false brings them back up.
	Down bool
	// Links names the target links.
	Links []string
}

// FlapSpec is a compact description of a link flap pattern: starting at
// FirstDownAt, the link repeats down-for-DownDur / up-for-UpDur cycles, and a
// cycle starts only before Until (a spec whose FirstDownAt is not before
// Until never flaps). Jitter, when non-zero, perturbs each phase duration
// uniformly by up to ±Jitter (a fraction, e.g. 0.3 for ±30%) using the
// seeded stream handed to Install, so flap timing varies across trials but is
// bit-reproducible for a given seed. Every down is followed by its up, even
// past Until, so the link always ends the schedule healed. Both phases must
// be non-negative and the cycle longer than zero: Install panics naming the
// link otherwise, since the first would put an up before its down and the
// second would re-arm forever at one instant.
type FlapSpec struct {
	Link        string
	FirstDownAt float64
	DownDur     float64
	UpDur       float64
	Jitter      float64
	Until       float64
}

// FaultSchedule is the full fault plan for one trial: explicit events plus
// flap patterns.
type FaultSchedule struct {
	Events []FaultEvent
	Flaps  []FlapSpec
}

// Empty reports whether the schedule contains nothing to inject.
func (s *FaultSchedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && len(s.Flaps) == 0)
}

// FaultLog counts the fault acts a trial has executed. An act is one
// explicit event or one flap phase, whatever its link count.
type FaultLog struct {
	Downs, Ups int
	// LastUp is the time of the last executed up; 0 if none ran.
	LastUp float64
}

// FaultInjector runs fault schedules on a topology's engine, one trial after
// another. It keeps each installed event's state across Installs, so a warm
// trial of the same shape allocates nothing. The zero value is ready; it
// must not be copied after first use.
type FaultInjector struct {
	eng *sim.Engine
	// rng is the flaps' jitter stream, shared by all of them.
	rng    *rand.Rand
	faults []*fault
	log    FaultLog
}

// fault is one installed FaultEvent or FlapSpec: the links it switches, the
// act due next and, for a flap, the cycle that re-arms it.
type fault struct {
	in    *FaultInjector
	links []*Link
	// at and down are the time and direction of the act due next.
	at   float64
	down bool
	// flap is nil for an explicit event.
	flap *FlapSpec
	// fire is run, bound once.
	fire func()
}

// Install resets the log and posts s on topo's engine, which must stand at
// time zero (fresh or just reset). Link names resolve through topo, and an
// unknown one panics. Times are absolute, so one before zero panics in the
// engine. rng is the flaps' jitter stream; nil disables jitter.
func (in *FaultInjector) Install(topo *Topology, s *FaultSchedule, rng *rand.Rand) {
	in.eng, in.rng, in.log = topo.Eng, rng, FaultLog{}
	if s.Empty() {
		return
	}
	n := 0
	for i := range s.Events {
		ev := &s.Events[i]
		f := in.slot(n)
		n++
		for _, name := range ev.Links {
			f.links = append(f.links, linkNamed(topo, name))
		}
		f.at, f.down = ev.At, ev.Down
		in.eng.PostAt(f.at, f.fire)
	}
	for i := range s.Flaps {
		fl := &s.Flaps[i]
		if fl.DownDur < 0 || fl.UpDur < 0 || fl.DownDur+fl.UpDur <= 0 {
			panic(fmt.Sprintf("netem: flap on link %q has a negative phase or a cycle that never advances time (DownDur %v, UpDur %v)",
				fl.Link, fl.DownDur, fl.UpDur))
		}
		if !(fl.FirstDownAt < fl.Until) {
			continue
		}
		f := in.slot(n)
		n++
		f.links = append(f.links, linkNamed(topo, fl.Link))
		f.at, f.down = fl.FirstDownAt, true
		f.flap = fl
		in.eng.PostAt(f.at, f.fire)
	}
}

// Log returns the acts executed since the last Install.
func (in *FaultInjector) Log() FaultLog { return in.log }

// slot returns the i-th fault record, cleared, growing the set on first use.
func (in *FaultInjector) slot(i int) *fault {
	if i == len(in.faults) {
		f := &fault{in: in}
		f.fire = f.run
		in.faults = append(in.faults, f)
	}
	f := in.faults[i]
	f.links = f.links[:0]
	f.flap = nil
	return f
}

// linkNamed resolves a fault target.
func linkNamed(topo *Topology, name string) *Link {
	l := topo.LinkByName(name)
	if l == nil {
		panic(fmt.Sprintf("netem: fault schedule references unknown link %q", name))
	}
	return l
}

// run executes the act due now and, for a flap, posts its next phase: the up
// after every down, and the next down while it falls before Until.
func (f *fault) run() {
	for _, l := range f.links {
		l.SetDown(f.down)
	}
	if log := &f.in.log; f.down {
		log.Downs++
	} else {
		log.Ups++
		log.LastUp = f.at
	}
	fl := f.flap
	if fl == nil {
		return
	}
	if f.down {
		f.at += f.jitter(fl.DownDur)
	} else if f.at += f.jitter(fl.UpDur); !(f.at < fl.Until) {
		return
	}
	f.down = !f.down
	f.in.eng.PostAt(f.at, f.fire)
}

// jitter perturbs a flap phase duration by up to ±Jitter, never below zero.
func (f *fault) jitter(d float64) float64 {
	if f.flap.Jitter <= 0 || f.in.rng == nil {
		return d
	}
	// float64(u): rand's own scaling must not fuse into 2u-1.
	u := float64(f.in.rng.Float64())
	d *= 1 + float64(f.flap.Jitter*(2*u-1))
	if d < 0 {
		return 0
	}
	return d
}
