//go:build race

package dycore

func init() { raceEnabled = true }
