//go:build !race

package service

// raceEnabled gates the AllocsPerRun tests; see race_enabled_test.go.
const raceEnabled = false
