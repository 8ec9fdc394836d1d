//go:build race

package plan

// raceEnabled: the race detector slows every test down; time bounds hold
// only without it.
const raceEnabled = true
