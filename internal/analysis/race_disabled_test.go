//go:build !race

package analysis

// raceEnabled gates the AllocsPerRun tests; see race_enabled_test.go.
const raceEnabled = false
