//go:build race

package optimizer

// raceEnabled reports that the race detector is on: the reference recursion is an order of magnitude slower and
// allocation counts are not meaningful.
const raceEnabled = true
