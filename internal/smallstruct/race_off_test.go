//go:build !race

package smallstruct

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
