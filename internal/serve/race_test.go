//go:build race

package serve

// raceEnabled skips allocation counts that rest on pooled buffers:
// under the race detector sync.Pool drops a quarter of its Puts on
// purpose.
const raceEnabled = true
