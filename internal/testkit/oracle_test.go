package testkit_test

import (
	"testing"

	"probpred/internal/testkit/oracle"
)

// compositionSeeds is the oracle's fixed seed corpus: every seed is one
// random draw of strategy and workload (oracle.Random), run in tier-1.
const compositionSeeds = 48

// TestComposition holds random compositions of every execution strategy to
// the serial, uncached, unsharded reference.
func TestComposition(t *testing.T) {
	for seed := uint64(1); seed <= compositionSeeds; seed++ {
		oracle.Check(t, oracle.Random(seed))
	}
}

// FuzzComposition explores draws beyond the seed corpus:
//
//	go test -run '^$' -fuzz FuzzComposition -fuzztime 10s ./internal/testkit
func FuzzComposition(f *testing.F) {
	for seed := uint64(1); seed <= compositionSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		oracle.Check(t, oracle.Random(seed))
	})
}
