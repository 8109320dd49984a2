// Fixture mirroring internal/bench: the evaluation harness reports
// simulated time only, so it is no longer exempt.
package bench

import "time"

// Measure would put host speed into a table of simulated seconds.
func Measure(fn func()) time.Duration {
	start := time.Now() // want "time.Now reads the wall clock"
	fn()
	return time.Since(start) // want "time.Since reads the wall clock"
}
