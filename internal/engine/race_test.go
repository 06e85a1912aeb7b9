//go:build race

package engine

// raceEnabled is true under -race, where sync.Pool drops a share of Puts
// on purpose, so allocation counts do not describe the normal build.
const raceEnabled = true
