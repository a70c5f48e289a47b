package harness

import (
	"testing"

	"mlq/internal/events"
)

// countCacheEvents counts the buffer-cache events of one kind on the spine.
func countCacheEvents(rec *events.Recorder, kind events.Kind) int {
	n := 0
	for _, e := range rec.Snapshot() {
		if e.Sub == events.SubBufferCache && e.Kind == kind {
			n++
		}
	}
	return n
}

// TestChaosLatencyCacheEventsReachSpine checks the slow-disk sweep hands its
// recorder to the page caches: every execution lost to an exhausted retry
// budget leaves exactly one retry-exhausted event on the spine.
func TestChaosLatencyCacheEventsReachSpine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full substrates")
	}
	rec := events.New(events.Config{Seed: 1})
	cells, err := ChaosLatency(ChaosLatencyConfig{Dir: t.TempDir()}, Options{Seed: 1, Queries: 400, Events: rec})
	if err != nil {
		t.Fatal(err)
	}
	var failures int64
	for _, c := range cells {
		failures += c.ExecFailures
	}
	if failures == 0 {
		t.Fatal("no execution failed; the test needs a harsher sweep")
	}
	if got := countCacheEvents(rec, events.KindRetryExhausted); int64(got) != failures {
		t.Errorf("retry-exhausted events = %d, exec failures = %d", got, failures)
	}
}

// TestMemWallCacheResizeReachesSpine checks the memory-wall run hands its
// recorder to the page cache, so the arbiter's cache resizes are on the
// spine.
func TestMemWallCacheResizeReachesSpine(t *testing.T) {
	rec := events.New(events.Config{Seed: 1})
	if _, err := MemWall(MemWallConfig{}, Options{Seed: 1, Queries: 600, Events: rec}); err != nil {
		t.Fatal(err)
	}
	if got := countCacheEvents(rec, events.KindResize); got == 0 {
		t.Error("no buffer-cache resize event on the spine")
	}
}
