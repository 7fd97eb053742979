//go:build !race

package harness

const raceDetectorOn = false
