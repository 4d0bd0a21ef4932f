package online

// The consecutive-failure circuit breaker extracted from the accuracy
// watchdog, reusable by any component that must stop trusting a flaky
// dependency after repeated misses and retry it cautiously later. Two
// clients share it today: the watchdog (per-clause PP accuracy; probation is
// entered when a retrained PP comes back) and the adapt controller's replan
// guard (per-predicate; probation is entered after a jittered backoff
// measured in adaptive runs).
//
// The state machine is the watchdog's:
//
//	Closed --(K consecutive failures)--> Open
//	Open --(Probation(): retrained / backoff elapsed)--> Probation
//	Probation --(success)--> Closed
//	Probation --(failure)--> Open (backoff doubles, capped)
//
// Reports while Open are ignored (nothing is being risked). The breaker is
// not safe for concurrent use; callers hold their own locks (the watchdog's
// breakers sit under System.mu, the adapt controller serializes per-key
// access).

// BreakerConfig shapes one circuit breaker.
type BreakerConfig struct {
	// K is how many consecutive failures trip the breaker. Zero selects 3.
	K int
	// Backoff is the initial hold-open duration in caller-defined ticks
	// (adaptive runs, label counts, ...). Zero selects 4. Each re-trip from
	// probation doubles it up to MaxBackoff.
	Backoff int
	// MaxBackoff caps the exponential backoff. Zero selects 64.
	MaxBackoff int
	// JitterSeed seeds the deterministic jitter added to each backoff window
	// (up to half the window), de-synchronizing retries across breakers that
	// trip together. The jitter is a pure function of seed and trip count, so
	// runs are reproducible.
	JitterSeed uint64
}

func (c *BreakerConfig) fill() {
	if c.K == 0 {
		c.K = 3
	}
	if c.Backoff == 0 {
		c.Backoff = 4
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 64
	}
}

// Transition is what one Report did to the breaker's state.
type Transition int

const (
	// TransitionNone: nothing changed (a pass while closed, or any report
	// while open).
	TransitionNone Transition = iota
	// TransitionBreach: a failure counted toward K while closed.
	TransitionBreach
	// TransitionTrip: the breaker opened (K-th consecutive failure while
	// closed, or any failure during probation).
	TransitionTrip
	// TransitionClose: a probation success closed the breaker.
	TransitionClose
)

// String renders the transition for events and tests.
func (t Transition) String() string {
	switch t {
	case TransitionBreach:
		return "breach"
	case TransitionTrip:
		return "trip"
	case TransitionClose:
		return "close"
	default:
		return "none"
	}
}

// Breaker is one circuit: see the package-level state diagram.
type Breaker struct {
	cfg   BreakerConfig
	state BreakerState
	// fails counts consecutive failures while closed.
	fails int
	// trips counts lifetime trips (drives backoff doubling and jitter).
	trips int
	// trippedAt is the caller-supplied tick of the last trip.
	trippedAt int
	// backoff is the current hold-open window in ticks.
	backoff int
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.fill()
	return &Breaker{cfg: cfg, backoff: cfg.Backoff}
}

// State returns the current circuit state.
func (b *Breaker) State() BreakerState { return b.state }

// Fails returns the consecutive-failure count while closed.
func (b *Breaker) Fails() int { return b.fails }

// Trips returns how many times the breaker has tripped.
func (b *Breaker) Trips() int { return b.trips }

// Report feeds one success/failure observation and returns the transition it
// caused. tick is the caller's monotonic clock (used to stamp trips for
// Ready); callers without a clock pass 0 and drive probation explicitly.
func (b *Breaker) Report(ok bool, tick int) Transition {
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return TransitionNone
		}
		b.fails++
		if b.fails >= b.cfg.K {
			b.trip(tick)
			return TransitionTrip
		}
		return TransitionBreach
	case BreakerProbation:
		if ok {
			b.state = BreakerClosed
			b.fails = 0
			b.backoff = b.cfg.Backoff
			return TransitionClose
		}
		b.trip(tick)
		// Re-tripping from probation doubles the backoff: the retry was
		// premature, so the next one waits longer.
		b.backoff *= 2
		if b.backoff > b.cfg.MaxBackoff {
			b.backoff = b.cfg.MaxBackoff
		}
		return TransitionTrip
	default: // BreakerOpen: nothing is being risked, reports carry no signal.
		return TransitionNone
	}
}

func (b *Breaker) trip(tick int) {
	b.state = BreakerOpen
	b.fails = 0
	b.trips++
	b.trippedAt = tick
}

// Ready reports whether an open breaker's jittered backoff window has
// elapsed at the given tick — i.e. whether the caller may move it to
// probation and risk one retry. Closed and probation breakers are always
// "ready" (there is nothing to wait for).
func (b *Breaker) Ready(tick int) bool {
	if b.state != BreakerOpen {
		return true
	}
	return tick >= b.trippedAt+b.backoff+b.jitter()
}

// jitter derives a deterministic 0..backoff/2 offset from the seed and trip
// count (splitmix64 finalizer), so concurrent breakers de-synchronize while
// individual runs stay reproducible.
func (b *Breaker) jitter() int {
	half := b.backoff / 2
	if half <= 0 {
		return 0
	}
	z := b.cfg.JitterSeed ^ (uint64(b.trips) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(half+1))
}

// Probation moves an open breaker to probation: the guarded operation may be
// risked once, and the next Report decides between closing and re-tripping.
// The watchdog calls this when a retrained PP re-enters; the adapt controller
// calls it when Ready reports the backoff elapsed. No-op unless open.
func (b *Breaker) Probation() {
	if b.state == BreakerOpen {
		b.state = BreakerProbation
	}
}
