//go:build race

package mr

// raceEnabled turns on the typed pools' ownership checks (pool.go) in
// the build every concurrency test runs under, and skips checks of what
// the pools hold: under the race detector sync.Pool drops a quarter of
// its Puts on purpose.
const raceEnabled = true
