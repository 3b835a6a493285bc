//go:build race

package analysis

// raceEnabled gates the AllocsPerRun tests: the race detector makes
// sync.Pool drop items at random and instruments allocations, so
// zero-alloc assertions are meaningless under -race.
const raceEnabled = true
