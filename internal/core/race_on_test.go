//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given back on purpose, so pooled-buffer allocation bounds do not hold.
const raceEnabled = true
