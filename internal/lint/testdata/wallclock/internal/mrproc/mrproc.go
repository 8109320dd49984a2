// The socket transport is exempt: its clock reads drive deadlines and
// heartbeats, never job counters or output bytes.
package mrproc

import "time"

// Deadline is now plus the transport's timeout; not flagged.
func Deadline(timeout time.Duration) time.Time {
	return time.Now().Add(timeout)
}
