//go:build race

package gnn

func init() { raceEnabled = true }
