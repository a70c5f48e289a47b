package quadtree

import (
	"math/rand"
	"testing"

	"mlq/internal/geom"
)

// TestWarmPathsAllocateNothing guards the allocation-free hot loops: once a
// tree at the paper's 1843 B budget is warm, Insert (compression passes
// included), Predict and snapshot Predict allocate nothing. AllocsPerRun
// reports whole allocations per call, so the rare kids compaction (far
// fewer than one per insert) stays under the bar while any per-call
// allocation fails it.
func TestWarmPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	region := geom.Rect{Lo: geom.Point{0, 0, 0, 0}, Hi: geom.Point{1000, 1000, 1000, 1000}}
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
	}
	for _, strat := range []Strategy{Eager, Lazy} {
		tr, err := New(Config{Region: region, Strategy: strat, MemoryLimit: 1843})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		insert := func() {
			if err := tr.Insert(pts[i%len(pts)], float64(i%10000)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < 20000 {
			insert()
		}
		if tr.Compressions() == 0 {
			t.Fatalf("%v: warm-up never compressed", strat)
		}
		before := tr.Compressions()
		if n := testing.AllocsPerRun(2000, insert); n != 0 {
			t.Errorf("%v: Insert allocates %v times per call", strat, n)
		}
		if tr.Compressions() == before {
			t.Errorf("%v: measured inserts never compressed", strat)
		}
		if n := testing.AllocsPerRun(2000, func() { tr.Predict(pts[i%len(pts)]); i++ }); n != 0 {
			t.Errorf("%v: Predict allocates %v times per call", strat, n)
		}
		snap := tr.Snapshot()
		if n := testing.AllocsPerRun(2000, func() { snap.Predict(pts[i%len(pts)]); i++ }); n != 0 {
			t.Errorf("%v: Snapshot.Predict allocates %v times per call", strat, n)
		}
	}
}
