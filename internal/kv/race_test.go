//go:build race

package kv

func init() { raceEnabled = true }
