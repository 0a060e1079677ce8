//go:build !race

package benchcase

const raceEnabled = false
