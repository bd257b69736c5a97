package netem

import (
	"fmt"
	"math/rand"
	"sort"
)

// Fault injection: deterministic, timed hard faults layered on top of the
// smooth variation VaryingSpec models. A FaultSchedule is attached to a
// topology spec (see internal/exp) and resolved at build time into plain
// engine events, so faults compose with trial arenas and Link.Reset without
// touching the simulator's (at, seq) determinism: the schedule's event times
// are fixed before the simulation starts.
//
// Fault semantics at the link level are implemented by Link.SetDown: drop
// the in-flight train into the fault ledger, park the serializer, keep the
// queue.

// FaultKind enumerates the fault event types.
type FaultKind uint8

const (
	// FaultLinkDown takes the named Link down: in-flight packets are
	// destroyed (fault ledger), queued packets stay buffered, nothing
	// serializes until the link comes back up.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp brings the named Link back up.
	FaultLinkUp
	// FaultPartition takes every link in Links down at once — a routing
	// partition cutting a named link set.
	FaultPartition
	// FaultHeal brings every link in Links back up.
	FaultHeal
)

// String names the kind for reports and errors.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one timed fault. Which operand field is read depends on
// Kind: Link for LinkDown/LinkUp, Links for Partition/Heal.
type FaultEvent struct {
	// At is the absolute simulation time the fault fires.
	At float64
	// Kind selects the fault type.
	Kind FaultKind
	// Link names the target of LinkDown/LinkUp.
	Link string
	// Links names the target set of Partition/Heal.
	Links []string
}

// FlapSpec is a compact description of a link flap pattern: starting at
// FirstDownAt, the link repeats down-for-DownDur / up-for-UpDur cycles.
// Jitter, when non-zero, perturbs each phase duration uniformly by up to
// ±Jitter (a fraction, e.g. 0.3 for ±30%) using the seeded RNG handed to
// Materialize, so flap timing varies across trials but is bit-reproducible
// for a given seed. The pattern stops after Count cycles, or at Until
// (whichever limit is set; with both set, whichever comes first). A spec
// with neither limit flaps exactly once. Every cycle emits a down and a
// matching up, so the link always ends the schedule healed. Phase durations
// may not be negative (see Materialize).
type FlapSpec struct {
	Link        string
	FirstDownAt float64
	DownDur     float64
	UpDur       float64
	Jitter      float64
	Count       int
	Until       float64
}

// FaultSchedule is the full fault plan for one trial: explicit events plus
// flap patterns expanded at materialization time.
type FaultSchedule struct {
	Events []FaultEvent
	Flaps  []FlapSpec
}

// Empty reports whether the schedule contains nothing to inject.
func (s *FaultSchedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && len(s.Flaps) == 0)
}

// Materialize appends the schedule's concrete event list to dst and returns
// it, sorted by time (stable, so same-instant events keep their schedule
// order). Flap patterns are expanded with phase-duration jitter drawn from
// rng — exactly one stream, consumed in spec order, so materialization is
// deterministic for a given seed. A nil rng disables jitter. A flap with a
// negative phase, or with no Count and DownDur+UpDur <= 0, panics naming its
// link: the first would put an up before its down, and the second would
// never reach Until, growing dst until memory runs out.
func (s *FaultSchedule) Materialize(dst []FaultEvent, rng *rand.Rand) []FaultEvent {
	if s == nil {
		return dst
	}
	dst = append(dst, s.Events...)
	for _, f := range s.Flaps {
		jit := func(d float64) float64 {
			if f.Jitter <= 0 || rng == nil {
				return d
			}
			d *= 1 + f.Jitter*(2*rng.Float64()-1)
			if d < 0 {
				return 0
			}
			return d
		}
		count := f.Count
		if count <= 0 && f.Until <= 0 {
			count = 1
		}
		if f.DownDur < 0 || f.UpDur < 0 || count <= 0 && f.DownDur+f.UpDur <= 0 {
			panic(fmt.Sprintf("netem: flap on link %q has a negative phase or a cycle that never advances time (DownDur %v, UpDur %v, Count %d)",
				f.Link, f.DownDur, f.UpDur, f.Count))
		}
		t := f.FirstDownAt
		for k := 0; (count <= 0 || k < count) && (f.Until <= 0 || t < f.Until); k++ {
			dst = append(dst, FaultEvent{At: t, Kind: FaultLinkDown, Link: f.Link})
			t += jit(f.DownDur)
			dst = append(dst, FaultEvent{At: t, Kind: FaultLinkUp, Link: f.Link})
			t += jit(f.UpDur)
		}
	}
	sort.SliceStable(dst, func(i, j int) bool { return dst[i].At < dst[j].At })
	return dst
}
