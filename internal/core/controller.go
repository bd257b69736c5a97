package core

import "math/rand"

// State is the controller's learning state (§3.2).
type State int

// Controller states.
const (
	// StateStarting doubles the rate each MI until utility decreases.
	StateStarting State = iota
	// StateDecision runs randomized controlled trials at r(1±ε).
	StateDecision
	// StateAdjusting moves in the chosen direction with growing steps.
	StateAdjusting
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateDecision:
		return "decision"
	case StateAdjusting:
		return "adjusting"
	}
	return "unknown"
}

// miRole records what experiment an MI was part of and the rate it runs at.
// The monitor keeps it in the MI's own record and hands it back with the
// MI's stats, so a result that arrives about one RTT later is routed without
// the controller remembering anything per MI.
type miRole struct {
	kind  roleKind
	rate  float64
	trial int // trial index 0..3 within the current RCT round
	round int // RCT round counter, to discard stale trial results
	step  int // adjusting step n
}

type roleKind int

const (
	roleStarting roleKind = iota
	roleTrial
	roleFiller // base-rate MI while waiting for trial results
	roleAdjust
)

// Controller is the §3.2 learning control algorithm as a pure state
// machine: the Monitor asks it for the next MI's role (its rate and what
// experiment it is part of) and hands each role back with the MI's stats
// when known. It does no I/O, keeps no clock and holds no per-MI state: an
// MI whose result never comes back leaves nothing behind.
type Controller struct {
	cfg Config
	rng *rand.Rand

	state State
	rate  float64 // base rate r, bytes/s
	eps   float64

	// Starting state bookkeeping.
	lastStartUtility float64
	haveStartUtility bool
	haveStartRole    bool // first starting MI runs at InitialRate, no doubling

	// Decision (RCT) bookkeeping.
	round        int
	trialSigns   [4]int
	trialUtility [4]float64
	trialHave    [4]bool
	trialsLeft   int // trial MIs not yet scheduled in this round

	// Adjusting bookkeeping.
	dir         int
	step        int
	lastAdjUtil float64
	haveAdjUtil bool
	prevAdjRate float64

	rateChanged bool // realign signal for the monitor

	// Telemetry.
	decisions    int64
	reversions   int64
	inconclusive int64
}

// NewController builds a controller starting in the Starting state at
// cfg.InitialRate.
func NewController(cfg Config, rng *rand.Rand) *Controller {
	c := &Controller{}
	c.Reset(cfg, rng)
	return c
}

// Reset returns the controller to the state NewController(cfg, rng) would
// build, in place. rng is the sender's stream, already rewound by the caller.
func (c *Controller) Reset(cfg Config, rng *rand.Rand) {
	cfg = cfg.normalize()
	*c = Controller{
		cfg:   cfg,
		rng:   rng,
		state: StateStarting,
		rate:  cfg.InitialRate,
		eps:   cfg.EpsMin,
	}
}

// State returns the current learning state.
func (c *Controller) State() State { return c.state }

// Rate returns the current base rate r, bytes/s.
func (c *Controller) Rate() float64 { return c.rate }

// Epsilon returns the current experiment granularity ε.
func (c *Controller) Epsilon() float64 { return c.eps }

// TakeRealign reports and clears the "rate changed, re-align the MI"
// signal (§3.1's optimization).
func (c *Controller) TakeRealign() bool {
	r := c.rateChanged
	c.rateChanged = false
	return r
}

// pairCount returns the number of (higher, lower) MI pairs per RCT round:
// 2 with RCTs (the paper's randomized controlled trials), 1 without.
func (c *Controller) pairCount() int {
	if c.cfg.NoRCT {
		return 1
	}
	return 2
}

// nextMI returns the next MI's role, its rate included. The monitor calls
// it exactly once per MI, in order, and keeps the role with the MI.
func (c *Controller) nextMI() miRole {
	switch c.state {
	case StateStarting:
		// First MI runs at the initial rate; each subsequent MI doubles it.
		if c.haveStartRole {
			c.rate *= 2
		}
		c.haveStartRole = true
		return miRole{kind: roleStarting, rate: c.rate}

	case StateDecision:
		if c.trialsLeft > 0 {
			idx := c.numTrials() - c.trialsLeft // trial index within the round
			sign := c.trialSigns[idx]
			c.trialsLeft--
			r := c.rate * (1 + float64(sign)*c.eps)
			return miRole{kind: roleTrial, rate: r, trial: idx, round: c.round}
		}
		// All trials scheduled: send at the base rate until results arrive.
		return miRole{kind: roleFiller, rate: c.rate}

	case StateAdjusting:
		c.step++
		c.prevAdjRate = c.rate
		c.rate *= 1 + float64(c.step)*c.cfg.EpsMin*float64(c.dir)
		if c.rate < c.cfg.MinRate {
			c.rate = c.cfg.MinRate
		}
		return miRole{kind: roleAdjust, rate: c.rate, step: c.step}
	}
	return miRole{kind: roleFiller, rate: c.rate}
}

func (c *Controller) numTrials() int { return 2 * c.pairCount() }

// enterDecision (re)initializes an RCT round at the current base rate.
func (c *Controller) enterDecision(resetEps bool) {
	c.state = StateDecision
	if resetEps {
		c.eps = c.cfg.EpsMin
	}
	c.round++
	n := c.numTrials()
	c.trialsLeft = n
	for i := range c.trialHave {
		c.trialHave[i] = false
	}
	// Random order within each pair: (+,−) or (−,+).
	for p := 0; p < c.pairCount(); p++ {
		hiFirst := c.rng.Intn(2) == 0
		a, b := 1, -1
		if !hiFirst {
			a, b = -1, 1
		}
		c.trialSigns[2*p] = a
		c.trialSigns[2*p+1] = b
	}
}

// deliver feeds an MI's finalized stats, with the role nextMI gave it, back
// into the state machine.
func (c *Controller) deliver(role miRole, stats MIStats) {
	u := c.cfg.Utility.Eval(stats)

	switch role.kind {
	case roleStarting:
		if c.state != StateStarting {
			return // stale: we already left slow start
		}
		if c.haveStartUtility && u < c.lastStartUtility {
			// Utility decreased: return to the previous (half) rate and
			// start making decisions (§3.2 Starting State).
			c.rate = role.rate / 2
			if c.rate < c.cfg.MinRate {
				c.rate = c.cfg.MinRate
			}
			c.enterDecision(true)
			c.rateChanged = true
			return
		}
		c.lastStartUtility = u
		c.haveStartUtility = true

	case roleTrial:
		if c.state != StateDecision || role.round != c.round {
			return // stale trial from an abandoned round
		}
		c.trialUtility[role.trial] = u
		c.trialHave[role.trial] = true
		n := c.numTrials()
		for i := 0; i < n; i++ {
			if !c.trialHave[i] {
				return // wait for the full round
			}
		}
		c.concludeRound()

	case roleAdjust:
		if c.state != StateAdjusting {
			return
		}
		if c.haveAdjUtil && u < c.lastAdjUtil {
			// Utility fell: revert to the previous rate and re-enter
			// decision making (§3.2 Rate Adjusting State).
			c.reversions++
			c.rate = role.rate / (1 + float64(role.step)*c.cfg.EpsMin*float64(c.dir))
			if c.rate < c.cfg.MinRate {
				c.rate = c.cfg.MinRate
			}
			c.enterDecision(true)
			c.rateChanged = true
			return
		}
		c.lastAdjUtil = u
		c.haveAdjUtil = true

	case roleFiller:
		// Filler MIs produce no decisions.
	}
}

// concludeRound applies the §3.2 decision rule once all trial utilities of
// the current round are known.
func (c *Controller) concludeRound() {
	pairs := c.pairCount()
	hiWins, loWins := 0, 0
	for p := 0; p < pairs; p++ {
		var uHi, uLo float64
		for i := 2 * p; i < 2*p+2; i++ {
			if c.trialSigns[i] > 0 {
				uHi = c.trialUtility[i]
			} else {
				uLo = c.trialUtility[i]
			}
		}
		if uHi > uLo {
			hiWins++
		} else if uLo > uHi {
			loWins++
		}
	}
	c.decisions++
	switch {
	case hiWins == pairs:
		c.dir = 1
	case loWins == pairs:
		c.dir = -1
	default:
		// Inconclusive: stay at r, increase granularity, run another round.
		c.inconclusive++
		c.eps += c.cfg.EpsMin
		if c.eps > c.cfg.EpsMax {
			c.eps = c.cfg.EpsMax
		}
		c.enterDecision(false)
		return
	}
	// Conclusive: move to r(1±ε) and enter Rate Adjusting.
	c.rate *= 1 + float64(c.dir)*c.eps
	if c.rate < c.cfg.MinRate {
		c.rate = c.cfg.MinRate
	}
	c.state = StateAdjusting
	c.step = 0
	c.haveAdjUtil = false
	c.eps = c.cfg.EpsMin
	c.rateChanged = true
}

// Decisions returns how many RCT rounds concluded (telemetry).
func (c *Controller) Decisions() int64 { return c.decisions }

// Reversions returns how many adjusting-state reversions occurred.
func (c *Controller) Reversions() int64 { return c.reversions }

// Inconclusive returns how many RCT rounds were inconclusive.
func (c *Controller) Inconclusive() int64 { return c.inconclusive }
