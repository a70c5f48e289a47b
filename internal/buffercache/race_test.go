//go:build race

package buffercache

// raceEnabled reports a -race build, whose instrumentation allocates on
// paths that otherwise allocate nothing.
const raceEnabled = true
