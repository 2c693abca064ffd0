//go:build !race

package netem

// raceEnabled reports whether the race detector is active (build-tag
// probe, mirrored in race_on_test.go).
const raceEnabled = false
