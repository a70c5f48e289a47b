package spatialdb

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The searches as first written, with a per-query seen map, kept as
// oracles: the epoch-stamped versions must return the same objects and
// charge the same CPU and IO.

func (db *DB) oracleScan(x0, y0, x1, y1 int, stats *ExecStats, keep func(Object) bool, out *[]Object) error {
	seen := make(map[uint32]bool)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			ids, err := db.cellIDs(cx, cy, stats)
			if err != nil {
				return err
			}
			for _, id := range ids {
				if seen[id] {
					continue
				}
				seen[id] = true
				o, err := db.object(id, stats)
				if err != nil {
					return err
				}
				if keep(o) {
					*out = append(*out, o)
				}
			}
		}
	}
	return nil
}

func (db *DB) oracleWindow(wx, wy, ww, wh float64) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := db.run(func(stats *ExecStats) error {
		x0, y0 := db.cellOf(wx, wy)
		x1, y1 := db.cellOf(wx+ww, wy+wh)
		return db.oracleScan(x0, y0, x1, y1, stats, func(o Object) bool { return o.intersectsWindow(wx, wy, ww, wh) }, &out)
	})
	return out, stats, err
}

func (db *DB) oracleRange(x, y, r float64) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := db.run(func(stats *ExecStats) error {
		x0, y0 := db.cellOf(x-r, y-r)
		x1, y1 := db.cellOf(x+r, y+r)
		return db.oracleScan(x0, y0, x1, y1, stats, func(o Object) bool { return o.distTo(x, y) <= r }, &out)
	})
	return out, stats, err
}

func (db *DB) oracleKNN(x, y float64, k int) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := db.run(func(stats *ExecStats) error {
		if k > db.nObjects {
			k = db.nObjects
		}
		g := db.cfg.GridSize
		cw := db.cfg.Extent / float64(g)
		cx, cy := db.cellOf(x, y)
		var h knnHeap
		seen := make(map[uint32]bool)
		for ring := 0; ring < g; ring++ {
			if len(h) == k && float64(ring-1)*cw > h[0].dist {
				break
			}
			visited := false
			for gy := cy - ring; gy <= cy+ring; gy++ {
				for gx := cx - ring; gx <= cx+ring; gx++ {
					if gy < 0 || gy >= g || gx < 0 || gx >= g ||
						(gx != cx-ring && gx != cx+ring && gy != cy-ring && gy != cy+ring) {
						continue
					}
					visited = true
					ids, err := db.cellIDs(gx, gy, stats)
					if err != nil {
						return err
					}
					for _, id := range ids {
						if seen[id] {
							continue
						}
						seen[id] = true
						o, err := db.object(id, stats)
						if err != nil {
							return err
						}
						d := o.distTo(x, y)
						if len(h) < k {
							heap.Push(&h, knnItem{obj: o, dist: d})
						} else if d < h[0].dist {
							h[0] = knnItem{obj: o, dist: d}
							heap.Fix(&h, 0)
						}
					}
				}
			}
			if !visited && ring > 0 {
				break
			}
		}
		out = make([]Object, len(h))
		for i := len(h) - 1; i >= 0; i-- {
			out[i] = heap.Pop(&h).(knnItem).obj
		}
		return nil
	})
	return out, stats, err
}

// TestSearchesMatchMapOracles runs seeded queries through each search and
// its map-based oracle on two identically generated maps, so the two
// buffer caches see the same page sequence: the sorted result sets and the
// CPU and IO charges must agree query by query.
func TestSearchesMatchMapOracles(t *testing.T) {
	cfg := Config{Extent: 200, NumObjects: 900, GridSize: 8, PageSize: 256, CachePages: 10, Seed: 4}
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(objs []Object) []uint32 {
		out := make([]uint32, len(objs))
		for i, o := range objs {
			out[i] = o.ID
		}
		slices.Sort(out)
		return out
	}
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 600; q++ {
		x, y := rng.Float64()*240-20, rng.Float64()*240-20
		var got, want []Object
		var gs, ws ExecStats
		var what string
		switch q % 3 {
		case 0:
			w, h := rng.Float64()*80, rng.Float64()*80
			what = fmt.Sprintf("Window(%g, %g, %g, %g)", x, y, w, h)
			got, gs, err = db.Window(x, y, w, h)
			if err == nil {
				want, ws, err = ref.oracleWindow(x, y, w, h)
			}
		case 1:
			r := rng.Float64() * 50
			what = fmt.Sprintf("Range(%g, %g, %g)", x, y, r)
			got, gs, err = db.Range(x, y, r)
			if err == nil {
				want, ws, err = ref.oracleRange(x, y, r)
			}
		default:
			k := 1 + rng.Intn(60)
			what = fmt.Sprintf("KNN(%g, %g, %d)", x, y, k)
			got, gs, err = db.KNN(x, y, k)
			if err == nil {
				want, ws, err = ref.oracleKNN(x, y, k)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("query %d %s: %d objects, oracle %d", q, what, len(got), len(want))
		}
		if gs.CPU != ws.CPU || gs.IO != ws.IO {
			t.Fatalf("query %d %s: CPU/IO %v/%v, oracle %v/%v", q, what, gs.CPU, gs.IO, ws.CPU, ws.IO)
		}
	}
}
