//go:build race

package main

// raceSlowdown stretches the end-to-end test phases: the race detector's
// instrumentation slows every op about tenfold or more, and a phase must
// still reach its sim window and 1,000 latency samples.
const raceSlowdown = 12
