//go:build race

package main

// raceEnabled: the race detector slows the smoke run several times over, so
// its 5 s budget is only held without it.
const raceEnabled = true
