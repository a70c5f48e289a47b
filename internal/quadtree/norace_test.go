//go:build !race

package quadtree

// raceEnabled reports a -race build, whose instrumentation allocates on
// paths that otherwise allocate nothing.
const raceEnabled = false
