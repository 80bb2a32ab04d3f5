//go:build race

package main

// The race detector slows the toy runs several times over.
func init() { raceDetector = true }
