//go:build race

package brisc

// raceEnabled reports whether the tests run under the race detector,
// which slows the compressor by an order of magnitude.
const raceEnabled = true
