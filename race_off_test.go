//go:build !race

package siwa

const raceEnabled = false
