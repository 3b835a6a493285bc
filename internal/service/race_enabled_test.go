//go:build race

package service

// raceEnabled gates the AllocsPerRun tests: the race detector makes
// sync.Pool drop items at random (by design, to surface lifetime
// bugs), so pooled paths allocate under -race and zero-alloc
// assertions are meaningless there.
const raceEnabled = true
