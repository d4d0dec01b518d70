//go:build race

package main

// raceEnabled reports that the self-tests run under the race detector,
// which slows the serve workload's load generator past its schedule.
const raceEnabled = true
