package mr

// RaceEnabled tells the external tests whether the pools count loans.
const RaceEnabled = raceEnabled
