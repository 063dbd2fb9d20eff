//go:build race

package ec

// The race detector's instrumentation allocates on its own, so
// allocation budgets are only meaningful without it.
func init() { raceEnabled = true }
