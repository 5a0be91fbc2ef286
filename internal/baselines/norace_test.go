//go:build !race

package baselines

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
