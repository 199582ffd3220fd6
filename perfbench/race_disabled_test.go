//go:build !race

package main

// raceSlowdown is 1 without the race detector; see race_enabled_test.go.
const raceSlowdown = 1
