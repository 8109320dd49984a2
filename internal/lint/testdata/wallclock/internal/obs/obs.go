// Fixture mirroring internal/obs: the tracing layer reports simulated
// time only, so wall-clock reads are banned there like everywhere
// outside the socket transport.
package obs

import "time"

// flaggedStamp would smuggle host time into span timestamps.
func flaggedStamp() int64 {
	return time.Now().UnixMicro() // want "time.Now reads the wall clock"
}

// cleanClock advances simulated time from cost-model durations.
func cleanClock(clock, dur float64) float64 {
	return clock + dur
}
