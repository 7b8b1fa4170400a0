//go:build !race

package brisc

const raceEnabled = false
