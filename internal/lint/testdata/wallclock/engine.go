// Fixture for the wallclock analyzer: wall-clock reads outside the
// socket transport.
package wallclock

import "time"

// flaggedNow reads the wall clock in engine code.
func flaggedNow() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

// flaggedSince is sugar for a time.Now read.
func flaggedSince(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the wall clock"
}

// cleanDuration manipulates time values without reading the clock.
func cleanDuration(d time.Duration) time.Duration {
	return d * 2
}

// suppressed records why a wall-clock read is acceptable here.
func suppressed() time.Time {
	//haten2:allow wallclock fixture demonstrating the suppression syntax
	return time.Now()
}
