//go:build !race

package node

const raceEnabled = false
