//go:build race

package infer

func init() { raceEnabled = true }
