//go:build race

package mr

// raceEnabled skips checks of what the typed pools hold: under the race
// detector sync.Pool drops a quarter of its Puts on purpose.
const raceEnabled = true
