// Package fault provides a seeded, deterministic fault injector for the
// simulated execution substrate. A production Cosmos/SCOPE-style cluster
// cannot assume UDFs never fail: tasks hit transient errors (lost containers,
// throttled dependencies) and stragglers (slow nodes, cold caches). The
// injector models both in virtual time so that fault-tolerance experiments
// stay reproducible bit-for-bit from a seed.
//
// Decisions are a pure hash of (seed, operator, blob id, attempt), not a
// stream of an advancing RNG. That property is what makes injected faults
// independent of execution order: the same blob sees the same fate whether
// the engine runs sequentially or chunked across workers, and a retried
// attempt draws a fresh, reproducible outcome.
package fault

import (
	"fmt"
	"math"

	"probpred/internal/metrics"
)

// Spec configures the fault behaviour of one operator (or the default for
// all operators without their own spec).
type Spec struct {
	// TransientRate is the probability that one attempt fails with a
	// transient error (retryable; the fault clears on its own).
	TransientRate float64
	// StragglerRate is the probability that one attempt straggles: it
	// succeeds but takes StragglerFactor times its nominal virtual duration.
	StragglerRate float64
	// StragglerFactor multiplies the nominal virtual duration of a
	// straggling attempt. Zero selects 10.
	StragglerFactor float64
	// MaxConsecutive bounds how many times in a row the injector fails the
	// same (operator, blob) pair — transient faults clear eventually. Zero
	// selects 3. With engine retries configured for more attempts than
	// MaxConsecutive, injected transient faults can never surface to the
	// query, which is what keeps outputs byte-identical to a fault-free run.
	MaxConsecutive int
}

func (s Spec) fill() Spec {
	if s.StragglerFactor == 0 {
		s.StragglerFactor = 10
	}
	if s.MaxConsecutive == 0 {
		s.MaxConsecutive = 3
	}
	return s
}

// Outcome is the injector's decision for one attempt.
type Outcome struct {
	// Fail reports a transient failure; the attempt produces no result.
	Fail bool
	// SlowFactor multiplies the attempt's nominal virtual duration. It is
	// 1 for healthy attempts and Spec.StragglerFactor for stragglers
	// (including failing ones: a task can burn time and then die).
	SlowFactor float64
}

// Injector decides per-attempt fault outcomes deterministically.
type Injector struct {
	seed  uint64
	def   Spec
	specs map[string]Spec
	// transientCtr / stragglerCtr count injected faults when a registry is
	// attached via SetMetrics; both are resolved once there, so Decide pays a
	// single nil check when metrics are off. Counting never perturbs the
	// decisions themselves — those stay a pure hash of (seed, op, blob,
	// attempt).
	transientCtr *metrics.Counter
	stragglerCtr *metrics.Counter
}

// NewInjector returns an injector with no faults configured: until SetDefault
// or Set is called every outcome is healthy.
func NewInjector(seed uint64) *Injector {
	return &Injector{seed: seed, specs: map[string]Spec{}}
}

// SetDefault configures the spec used by operators without their own.
func (i *Injector) SetDefault(s Spec) { i.def = s }

// SetMetrics attaches a metrics registry counting injected transient failures
// and stragglers. Nil detaches.
func (i *Injector) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		i.transientCtr, i.stragglerCtr = nil, nil
		return
	}
	i.transientCtr = reg.Counter("fault_injected_transient_total", "Transient failures injected into UDF attempts.")
	i.stragglerCtr = reg.Counter("fault_injected_straggler_total", "Straggling attempts injected into UDF execution.")
}

// Set configures one operator's spec, overriding the default.
func (i *Injector) Set(op string, s Spec) { i.specs[op] = s }

// spec resolves the effective spec for an operator.
func (i *Injector) spec(op string) Spec {
	if s, ok := i.specs[op]; ok {
		return s.fill()
	}
	return i.def.fill()
}

// Healthy reports whether the attempt neither fails nor straggles.
func (o Outcome) Healthy() bool { return !o.Fail && o.SlowFactor == 1 }

// Decide returns the outcome for one attempt (1-based) of applying operator
// op to the blob with the given id, counting it as injected when a registry
// is attached. The decision is a pure function of the injector's seed and
// the three arguments.
func (i *Injector) Decide(op string, blobID, attempt int) Outcome {
	out := i.Peek(op, blobID, attempt)
	if out.Fail && i.transientCtr != nil {
		i.transientCtr.Inc()
	}
	if out.SlowFactor != 1 && i.stragglerCtr != nil {
		i.stragglerCtr.Inc()
	}
	return out
}

// Peek returns the outcome Decide would return, without counting it: a
// caller can look ahead at an attempt it may not make yet.
func (i *Injector) Peek(op string, blobID, attempt int) Outcome {
	s := i.spec(op)
	out := Outcome{SlowFactor: 1}
	if s.TransientRate <= 0 && s.StragglerRate <= 0 {
		return out
	}
	if s.TransientRate > 0 && attempt <= s.MaxConsecutive &&
		hashFloat(i.seed, op, blobID, attempt, 0x7a11) < s.TransientRate {
		out.Fail = true
	}
	if s.StragglerRate > 0 &&
		hashFloat(i.seed, op, blobID, attempt, 0x51c0) < s.StragglerRate {
		out.SlowFactor = s.StragglerFactor
	}
	return out
}

// hashFloat maps (seed, op, blobID, attempt, salt) to a uniform [0,1).
func hashFloat(seed uint64, op string, blobID, attempt int, salt uint64) float64 {
	h := seed ^ salt
	for _, c := range []byte(op) {
		h = (h ^ uint64(c)) * 0x100000001b3 // FNV-1a style fold
	}
	h ^= uint64(blobID)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	// splitmix64 finalizer for avalanche.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// TransientError is the injected retryable failure. The engine's retry
// machinery recognizes it through the Transient method.
type TransientError struct {
	// Op is the operator whose attempt failed.
	Op string
	// BlobID identifies the input row.
	BlobID int
	// Attempt is the 1-based attempt number that failed.
	Attempt int
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient failure in %s on blob %d (attempt %d)",
		e.Op, e.BlobID, e.Attempt)
}

// Transient marks the error retryable.
func (e *TransientError) Transient() bool { return true }

// ExpectedSurvival returns the probability that one blob survives all its
// attempts without surfacing a fault, given an attempt budget — a helper for
// experiments sizing retry policies against injection rates.
func ExpectedSurvival(s Spec, attempts int) float64 {
	s = s.fill()
	if s.TransientRate <= 0 {
		return 1
	}
	// The injector never fails more than MaxConsecutive times in a row, so
	// any budget beyond that guarantees survival.
	if attempts > s.MaxConsecutive {
		return 1
	}
	return 1 - math.Pow(s.TransientRate, float64(attempts))
}
