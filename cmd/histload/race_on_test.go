//go:build race

package main

// raceEnabled reports a -race build, under which handler timings are the
// race detector's rather than the program's.
const raceEnabled = true
