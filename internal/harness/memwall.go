package harness

import (
	"fmt"
	"math"
	"math/rand"

	"mlq/internal/budget"
	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/geom"
	"mlq/internal/pagestore"
	"mlq/internal/quadtree"
	"mlq/internal/telemetry"
)

// MemWallConfig parameterizes the global-memory-wall experiment.
type MemWallConfig struct {
	// TotalBytes is the wall: the one budget shared by the cost model and
	// the buffer cache. Default 32 KiB.
	TotalBytes int
	// PageSize is the simulated disk's page size. Default 512.
	PageSize int
	// Pages is the database size in pages. Default 2048 (a 1 MiB database,
	// so no feasible split of the wall caches the phase-A working set).
	Pages int
	// HotPages is the size of phase B's migrated hot set. Default 40
	// (20 KiB: only a cache-heavy split holds it).
	HotPages int
	// ReadsHot is how many hot pages each phase-B query touches. Default 6.
	ReadsHot int
	// Splits are the static model fractions of the wall the arbiter is
	// judged against. Default {0.25, 0.5, 0.75}.
	Splits []float64
	// CycleEvery is how many queries pass between arbitration cycles.
	// Default 10.
	CycleEvery int
	// StepBytes is the arbiter's per-cycle transfer bound. Default 8192.
	StepBytes int
	// MinQueries floors the workload length. The phase-A cost surface has
	// 32×32 cells: below a few thousand queries no feasible model can
	// resolve it, every split ties on phase A, and the cell comparison
	// measures noise. Default 5000 (the whole four-cell run stays under a
	// second). Default-scale and -quick runs both land here.
	MinQueries int
}

func (c MemWallConfig) withDefaults() MemWallConfig {
	if c.TotalBytes == 0 {
		c.TotalBytes = 32 << 10
	}
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.Pages == 0 {
		c.Pages = 2048
	}
	if c.HotPages == 0 {
		c.HotPages = 40
	}
	if c.ReadsHot == 0 {
		c.ReadsHot = 6
	}
	if len(c.Splits) == 0 {
		c.Splits = []float64{0.25, 0.5, 0.75}
	}
	if c.CycleEvery == 0 {
		c.CycleEvery = 10
	}
	if c.StepBytes == 0 {
		c.StepBytes = 8192
	}
	if c.MinQueries == 0 {
		c.MinQueries = 5000
	}
	return c
}

// MemWallRow is one contender's outcome over the full two-phase workload.
type MemWallRow struct {
	// Name is "static-25" style for fixed splits, "arbiter" for the wall.
	Name string
	// ModelStart/ModelEnd are the model's byte grant entering and leaving
	// the run; CacheStart/CacheEnd likewise in pages. Static rows end where
	// they start.
	ModelStart, ModelEnd int
	CacheStart, CacheEnd int
	// IOCost is the summed physical-read cost (buffercache meter units).
	IOCost float64
	// Mispredict is the summed |predicted − actual| execution cost, same
	// units (an unanswerable prediction charges the full actual).
	Mispredict float64
	// Moves/BytesMoved are the arbiter's transfer counters (zero for
	// static rows).
	Moves      int64
	BytesMoved int64
}

// Total is the row's figure of merit: IO plus misprediction cost.
func (r MemWallRow) Total() float64 { return r.IOCost + r.Mispredict }

// MemWall runs the global-memory-wall experiment: a migrating-hot-set
// workload where no static split of one budget between the cost model and
// the buffer cache is good twice.
//
// Phase A queries uniformly over a cost surface with fine spatial structure
// (a 32×32 grid of page-read counts) against a database far larger than any
// feasible cache — every byte is worth more in the model, which needs
// ~1.4k nodes to resolve the surface. Phase B migrates: queries land in a
// narrow band with a flat cost surface, but each touches a small hot set of
// pages — every byte is worth more in the cache, which serves the whole
// phase from memory once it holds the hot set. The same seeded workload
// runs under each static split and under the arbiter (starting at 50/50,
// cycling every CycleEvery queries), and the summed IO + misprediction
// cost is compared.
//
// MemWall errors if the arbiter does not beat every static split, if any
// cycle fails, or if arbitration leaks bytes (the grants must sum to the
// wall after every cycle). The arbiter's row is returned last.
func MemWall(cfg MemWallConfig, opts Options) ([]MemWallRow, error) {
	opts = opts.withDefaults()
	cfg = cfg.withDefaults()
	if opts.Queries < cfg.MinQueries {
		opts.Queries = cfg.MinQueries
	}

	var rows []MemWallRow
	for _, frac := range cfg.Splits {
		row, err := runMemWallCell(fmt.Sprintf("static-%d", int(frac*100+0.5)), frac, false, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("memwall: %w", err)
		}
		rows = append(rows, row)
	}
	arb, err := runMemWallCell("arbiter", 0.5, true, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("memwall: %w", err)
	}
	rows = append(rows, arb)
	for _, r := range rows[:len(rows)-1] {
		if arb.Total() >= r.Total() {
			return nil, fmt.Errorf("memwall: arbiter total %.1f does not beat %s total %.1f",
				arb.Total(), r.Name, r.Total())
		}
	}
	return rows, nil
}

// memWallReads is the phase-A cost surface: how many pages the simulated
// UDF reads at point p — a 32×32 grid of values 1..8, fine enough that a
// depth-5 quadtree (1365 nodes) is needed to resolve it exactly.
func memWallReads(p geom.Point) int {
	gx := int(p[0] * 32)
	gy := int(p[1] * 32)
	return 1 + (gx*7+gy*13)%8
}

func runMemWallCell(name string, frac float64, arbitrated bool, cfg MemWallConfig, opts Options) (MemWallRow, error) {
	modelBytes := int(frac * float64(cfg.TotalBytes))
	cachePages := (cfg.TotalBytes - modelBytes) / cfg.PageSize
	row := MemWallRow{Name: name, ModelStart: modelBytes, CacheStart: cachePages}

	store, err := pagestore.New(cfg.PageSize)
	if err != nil {
		return row, err
	}
	payload := make([]byte, 8)
	for i := 0; i < cfg.Pages; i++ {
		id := store.Alloc()
		payload[0] = byte(i)
		if err := store.Write(id, payload); err != nil {
			return row, err
		}
	}
	cache, err := buffercache.New(store, cachePages)
	if err != nil {
		return row, err
	}
	cache.SetEvents(opts.Events)
	mlq, err := core.NewMLQ(quadtree.Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: modelBytes,
	})
	if err != nil {
		return row, err
	}
	pub, err := core.NewPublisher(mlq, core.PublisherConfig{Events: opts.Events})
	if err != nil {
		return row, err
	}
	defer pub.Close()

	var arb *budget.Arbiter
	if arbitrated {
		// Strong hysteresis: a move must promise double its price. The
		// phase-B cost surface is noisy while the cache is mid-migration
		// (miss counts fluctuate), which inflates the model's apparent
		// marginal value; without the margin the two holders trade the
		// same bytes back and forth. The reversal guard covers 5% of the
		// run's cycles, long enough that a stale bid (the model pricing
		// phase-A structure the workload no longer visits) decays before
		// it can claw back bytes the cache just won. The 8-page cache
		// floor keeps a live ghost window through the model-hungry phase,
		// so the cache can still bid when the hot set arrives.
		guard := opts.Queries / cfg.CycleEvery / 20
		arb, err = budget.New(budget.Config{StepBytes: cfg.StepBytes, Hysteresis: 1, ReversalGuard: guard},
			budget.NewModelHolder("model", pub, 0),
			budget.NewCacheHolder("cache", cache, 8))
		if err != nil {
			return row, err
		}
		if opts.Telemetry != nil {
			arb.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
			pub.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
			cache.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	half := opts.Queries / 2
	for q := 0; q < opts.Queries; q++ {
		phaseB := q >= half
		var p geom.Point
		if phaseB {
			// The migrated workload: a narrow band of the space...
			p = geom.Point{rng.Float64() * 0.125, rng.Float64()}
		} else {
			p = geom.Point{rng.Float64(), rng.Float64()}
		}
		pred, ok := pub.Predict(p)

		meter := cache.NewMeter()
		if phaseB {
			// ...whose UDF hammers a small hot set of pages, drawn at
			// random so evictions re-reference inside the ghost window and
			// the cache's capacity signal fires.
			for j := 0; j < cfg.ReadsHot; j++ {
				if _, err := cache.Get(pagestore.PageID(rng.Intn(cfg.HotPages))); err != nil {
					return row, err
				}
			}
		} else {
			// Phase A strides across the whole database: no feasible cache
			// helps, and the read count carries the fine cost structure the
			// model is for.
			k := memWallReads(p)
			for j := 0; j < k; j++ {
				if _, err := cache.Get(pagestore.PageID((q*13 + j*977) % cfg.Pages)); err != nil {
					return row, err
				}
			}
		}
		actual := meter.Cost()
		row.IOCost += actual
		if ok && core.ValidCost(pred) {
			row.Mispredict += math.Abs(pred - actual)
		} else {
			row.Mispredict += actual
		}
		if err := pub.Observe(p, actual); err != nil {
			return row, err
		}
		if err := pub.Flush(); err != nil {
			return row, err
		}
		if arb != nil && (q+1)%cfg.CycleEvery == 0 {
			if _, err := arb.Cycle(); err != nil {
				return row, fmt.Errorf("cycle at query %d: %w", q, err)
			}
			if got := arb.Stats().TotalBytes(); got != cfg.TotalBytes {
				return row, fmt.Errorf("query %d: grants sum to %d bytes, want the %d-byte wall",
					q, got, cfg.TotalBytes)
			}
		}
	}
	row.ModelEnd = pub.MemoryLimit()
	row.CacheEnd = cache.Capacity()
	if arb != nil {
		st := arb.Stats()
		row.Moves = st.Moves
		row.BytesMoved = st.BytesMoved
	}
	return row, nil
}
