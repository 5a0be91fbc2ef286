// Package walltime is the repo's only sanctioned wall-clock boundary.
//
// Everything in the repo is seed-reproducible: simulated time advances only
// through cluster.Advance, and no simulation or serving decision may depend
// on the machine's clock. Real elapsed time is still worth reporting —
// training seconds, benchmark wall time, serving throughput — so those
// metrics-only readings are funneled through this package, which the
// determinism analyzer (cmd/loam-vet) recognizes; time.Now and time.Since
// anywhere else are findings.
//
// The contract for callers: a Stopwatch reading may be logged, rendered or
// stored in a metrics struct, but must never influence simulated state, plan
// choice, or any other seed-reproducible output. The one exception is the
// guard's learned-path deadline (internal/guard): Elapsed is compared with it
// after the scorer returns, which only changes behavior on a run that was
// already overloaded; deadline *tests* use internal/faultinject's simulated
// delays, which never read the clock.
package walltime

import "time"

// Stopwatch measures real elapsed time for metrics and reporting.
type Stopwatch struct {
	start time.Time
}

// Start begins a stopwatch at the current wall-clock instant.
func Start() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Seconds returns the elapsed wall-clock seconds since Start.
func (s Stopwatch) Seconds() float64 {
	return time.Since(s.start).Seconds()
}

// Elapsed returns the elapsed wall-clock time since Start.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
