//go:build race

package main

// The race detector slows the per-stage calls and the whole study by
// different factors, so the traced run's timing ratios say nothing then.
func init() { raceDetector = true }
