//go:build race

package baselines

// raceEnabled reports that this binary was built with -race. The race
// detector makes sync.Pool drop items on purpose (to widen the race window),
// so allocation-count assertions on pooled paths are meaningless under it.
const raceEnabled = true
