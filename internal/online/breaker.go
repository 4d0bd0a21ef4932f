package online

// The consecutive-failure circuit breaker of the accuracy watchdog: one per
// clause, it stops trusting a PP after repeated accuracy misses and tries it
// again once a retrained PP comes back.
//
// The state machine:
//
//	Closed --(K consecutive failures)--> Open
//	Open --(Probation(): retrained)--> Probation
//	Probation --(success)--> Closed
//	Probation --(failure)--> Open
//
// Reports while Open are ignored (nothing is being risked). The breaker is
// not safe for concurrent use; the watchdog's breakers sit under System.mu.

// BreakerConfig shapes one circuit breaker.
type BreakerConfig struct {
	// K is how many consecutive failures trip the breaker. Zero selects 3.
	K int
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
	k     int
	state BreakerState
	// fails counts consecutive failures while closed.
	fails int
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.K == 0 {
		cfg.K = 3
	}
	return &Breaker{k: cfg.K}
}

// State returns the current circuit state.
func (b *Breaker) State() BreakerState { return b.state }

// Fails returns the consecutive-failure count while closed.
func (b *Breaker) Fails() int { return b.fails }

// Report feeds one success/failure observation and returns the transition it
// caused.
func (b *Breaker) Report(ok bool) Transition {
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return TransitionNone
		}
		b.fails++
		if b.fails >= b.k {
			b.trip()
			return TransitionTrip
		}
		return TransitionBreach
	case BreakerProbation:
		if ok {
			b.state = BreakerClosed
			b.fails = 0
			return TransitionClose
		}
		b.trip()
		return TransitionTrip
	default: // BreakerOpen: nothing is being risked, reports carry no signal.
		return TransitionNone
	}
}

func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.fails = 0
}

// Probation moves an open breaker to probation: the guarded PP may be
// risked once, and the next Report decides between closing and re-tripping.
// The watchdog calls this when a retrained PP re-enters. No-op unless open.
func (b *Breaker) Probation() {
	if b.state == BreakerOpen {
		b.state = BreakerProbation
	}
}
