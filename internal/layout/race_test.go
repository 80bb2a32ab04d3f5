//go:build race

package layout

func init() { raceDetector = true }
