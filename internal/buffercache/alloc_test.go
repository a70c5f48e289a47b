package buffercache

import (
	"testing"

	"mlq/internal/pagestore"
)

// TestGetHitAllocatesNothing guards the buffer cache's hot path: a hit is
// a slot lookup and, under LRU, two list relinks — no allocation.
func TestGetHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, policy := range []Policy{LRU, FIFO, Clock} {
		c, err := NewWithPolicy(newStore(t, 8), 8, policy)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 8; id++ {
			if _, err := c.Get(pagestore.PageID(id)); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() { c.Get(pagestore.PageID(i % 8)); i++ }); n != 0 {
			t.Errorf("%v: Get hit allocates %v times per call", policy, n)
		}
		if c.Misses() != 8 {
			t.Errorf("%v: %d misses, want only the 8 warm-up reads", policy, c.Misses())
		}
	}
}
