//go:build race

package search

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Put items and so allocates on Get.
const raceEnabled = true
