//go:build race

package cache

// raceEnabled gates the AllocsPerRun tests: the race detector
// instruments memory accesses and may allocate on its own, so
// zero-alloc assertions are meaningless under -race.
const raceEnabled = true
