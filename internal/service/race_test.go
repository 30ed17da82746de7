//go:build race

package service

// The race detector's instrumentation allocates, and its sync.Pool drops
// items at random, so allocation pins measure a normal build only.
func init() { raceEnabled = true }
