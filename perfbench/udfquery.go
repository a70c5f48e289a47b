package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/engine"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/minisql"
	"mlq/internal/quadtree"
	"mlq/internal/spatialdb"
	"mlq/internal/textdb"
)

// udf_query: the mlqsql set-up (textdb and spatialdb with 64-page buffer
// caches, the six real UDFs, cost and selectivity MLQ-L models at the
// paper's 1843 B, charge cpu + 10·io) driven by one closed-loop client
// issuing rank-ordered SQL, each query over a small batch of request rows.
const (
	udfBatchRows     = 8
	udfWarmupQueries = 300  // part of set-up: models learn, caches fill
	udfWindowQueries = 3000 // count window at the start of the timed phase
	udfModelBytes    = 1843
	udfCheckEvery    = 50 // every n-th timed query is re-run as-given
	udfCheckMax      = 40
	// substrateSeed fixes the databases: the data is part of the system
	// under test, the request stream is what --seed varies.
	substrateSeed = 1
)

// udfTemplates are the query shapes the stream mixes; each joins a spatial
// and a text UDF (or three UDFs) so rank ordering has a choice to make.
var udfTemplates = []string{
	`SELECT * FROM requests WHERE win_count(x, y, area) >= 5 AND prox_count(rank, w) > 0`,
	`SELECT * FROM requests WHERE range_count(x, y, r) > 3 AND doc_count(rank, n) > 0`,
	`SELECT * FROM requests WHERE knn_dist(x, y, k) < 40 AND thresh_count(rank, m) > 2`,
	`SELECT * FROM requests WHERE doc_count(rank, n) > 1 AND win_count(x, y, area) > 10 AND range_count(x, y, r) > 0`,
	`SELECT * FROM requests WHERE prox_count(rank, w) > 0 AND knn_dist(x, y, k) < 60`,
	`SELECT * FROM requests WHERE thresh_count(rank, m) > 0 AND range_count(x, y, r) >= 2`,
}

// queryStream generates the seeded request stream. Templates rotate in a
// fixed order, so every seed runs the same query mix; the seed draws the
// request rows.
type queryStream struct {
	rng   *rand.Rand
	vocab float64
	n     int
}

func (q *queryStream) next() (string, []engine.Row) {
	sql := udfTemplates[q.n%len(udfTemplates)]
	q.n++
	rows := make([]engine.Row, udfBatchRows)
	for i := range rows {
		rows[i] = engine.Row{
			q.rng.Float64() * 1000,    // x
			q.rng.Float64() * 1000,    // y
			1 + q.rng.Float64()*10000, // area
			1 + q.rng.Float64()*100,   // r
			1 + q.rng.Float64()*40,    // k
			q.rng.Float64() * q.vocab, // rank
			1 + q.rng.Float64()*5,     // n
			1 + q.rng.Float64()*4,     // m
			1 + q.rng.Float64()*50,    // w
		}
	}
	return sql, rows
}

// udfDB is one assembled database plus the benchmark's hooks in its UDF
// closures and model wrappers.
type udfDB struct {
	tdb    *textdb.DB
	sdb    *spatialdb.DB
	db     *minisql.DB
	table  *engine.Table
	models []*core.MLQ // cost and selectivity models of every UDF

	tr       *tracer
	counting bool // inside the count window
	nae      metrics.NAE
	cpu, io  float64
	evals    int64
	execErrs int64
	// visible collects model Observe durations: a synchronous model's
	// feedback is visible once Observe returns. recording is off outside
	// the timed phase.
	visible   []float64
	recording bool
}

// timedModel wraps a model to time its Observe calls.
type timedModel struct {
	m *core.MLQ
	u *udfDB
}

func (t timedModel) Predict(p geom.Point) (float64, bool) { return t.m.Predict(p) }
func (t timedModel) Name() string                         { return t.m.Name() }
func (t timedModel) Observe(p geom.Point, actual float64) error {
	if !t.u.recording {
		return t.m.Observe(p, actual)
	}
	start := time.Now()
	err := t.m.Observe(p, actual)
	t.u.visible = append(t.u.visible, float64(time.Since(start).Nanoseconds())/1e3)
	return err
}

// buildUDFDB assembles the substrates, the requests table and the six UDFs
// the way cmd/mlqsql does.
func buildUDFDB() (*udfDB, error) {
	tdb, err := textdb.Generate(textdb.Config{Seed: substrateSeed})
	if err != nil {
		return nil, err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: substrateSeed + 1})
	if err != nil {
		return nil, err
	}
	u := &udfDB{tdb: tdb, sdb: sdb, db: minisql.NewDB(), table: &engine.Table{Name: "requests"}}
	if err := u.db.AddTable(u.table, "x", "y", "area", "r", "k", "rank", "n", "m", "w"); err != nil {
		return nil, err
	}
	vocab := float64(tdb.VocabSize())
	type udfSpec struct {
		name   string
		arity  int
		lo, hi geom.Point
		span   string
		exec   func(a []float64) (value, cpu, io float64, err error)
	}
	specs := []udfSpec{
		{"win_count", 3, geom.Point{0, 0, 0}, geom.Point{1000, 1000, 10001}, "spatialdb.eval", func(a []float64) (float64, float64, float64, error) {
			side := math.Sqrt(math.Max(a[2], 1))
			objs, st, err := sdb.Window(a[0]-side/2, a[1]-side/2, side, side)
			return float64(len(objs)), st.CPU, st.IO, err
		}},
		{"range_count", 3, geom.Point{0, 0, 0}, geom.Point{1000, 1000, 101}, "spatialdb.eval", func(a []float64) (float64, float64, float64, error) {
			objs, st, err := sdb.Range(a[0], a[1], math.Max(a[2], 0))
			return float64(len(objs)), st.CPU, st.IO, err
		}},
		{"knn_dist", 3, geom.Point{0, 0, 1}, geom.Point{1000, 1000, 41}, "spatialdb.eval", func(a []float64) (float64, float64, float64, error) {
			objs, st, err := sdb.KNN(a[0], a[1], max(int(a[2]), 1))
			d := 0.0
			if len(objs) > 0 {
				last := objs[len(objs)-1]
				d = geom.Dist(geom.Point{a[0], a[1]}, geom.Point{last.CenterX(), last.CenterY()})
			}
			return d, st.CPU, st.IO, err
		}},
		{"doc_count", 2, geom.Point{0, 1}, geom.Point{vocab, 6}, "textdb.eval", func(a []float64) (float64, float64, float64, error) {
			docs, st, err := tdb.SearchSimple(wordsFrom(tdb, a[0], int(a[1])))
			return float64(len(docs)), st.CPU, st.IO, err
		}},
		{"thresh_count", 2, geom.Point{0, 1}, geom.Point{vocab, 5}, "textdb.eval", func(a []float64) (float64, float64, float64, error) {
			docs, st, err := tdb.SearchThreshold(wordsFrom(tdb, a[0], 5), int(a[1]))
			return float64(len(docs)), st.CPU, st.IO, err
		}},
		{"prox_count", 2, geom.Point{0, 1}, geom.Point{vocab, 51}, "textdb.eval", func(a []float64) (float64, float64, float64, error) {
			docs, st, err := tdb.SearchProximity(wordsFrom(tdb, a[0], 2), int(a[1]))
			return float64(len(docs)), st.CPU, st.IO, err
		}},
	}
	newModel := func(lo, hi geom.Point) (*core.MLQ, error) {
		region, err := geom.NewRect(lo, hi)
		if err != nil {
			return nil, err
		}
		m, err := core.NewMLQ(quadtree.Config{Region: region, Strategy: quadtree.Lazy, MemoryLimit: udfModelBytes})
		if err != nil {
			return nil, err
		}
		u.models = append(u.models, m)
		return m, nil
	}
	for _, s := range specs {
		cost, err := newModel(s.lo, s.hi)
		if err != nil {
			return nil, err
		}
		sel, err := newModel(s.lo, s.hi)
		if err != nil {
			return nil, err
		}
		f := &minisql.Func{
			Name: s.name, Arity: s.arity,
			Eval:     u.eval(s.span, cost, s.exec),
			Model:    timedModel{cost, u},
			SelModel: timedModel{sel, u},
		}
		if err := u.db.AddFunc(f); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// eval wraps one UDF execution: span, charge, and (inside the count
// window) the cost model's prediction error and the execution stats.
func (u *udfDB) eval(spanName string, cost *core.MLQ, exec func([]float64) (float64, float64, float64, error)) func([]float64) (float64, float64) {
	return func(a []float64) (float64, float64) {
		var predicted float64
		if u.counting {
			// The tree's own Predict leaves the model's cost accounting
			// alone; the engine made the same prediction when ranking.
			predicted, _ = cost.Tree().Predict(geom.Point(a))
		}
		var start time.Time
		if u.tr != nil {
			start = time.Now()
		}
		v, cpu, io, err := exec(a)
		if u.tr != nil {
			u.tr.record(spanName, start, time.Now())
		}
		if err != nil {
			u.execErrs++
			return 0, 0
		}
		charge := cpu + 10*io
		if u.counting {
			u.nae.Add(predicted, charge)
			u.cpu += cpu
			u.io += io
			u.evals++
		}
		return v, charge
	}
}

// wordsFrom mirrors the textdb UDF adapters' keyword materialization.
func wordsFrom(tdb *textdb.DB, rank float64, n int) []int {
	n = max(n, 1)
	stride := max(tdb.VocabSize()/64, 1)
	words := make([]int, n)
	for i := range words {
		words[i] = min(max(int(rank)+i*stride, 0), tdb.VocabSize()-1)
	}
	return words
}

// exec runs one query over a batch of rows.
func (u *udfDB) exec(sql string, rows []engine.Row, policy engine.OrderPolicy) (*minisql.Result, error) {
	u.table.Rows = rows
	return u.db.Exec(sql, policy)
}

// modelCosts sums the paper's PC/IC/CC breakdown over every model.
func (u *udfDB) modelCosts() (c core.Costs) {
	for _, m := range u.models {
		mc := m.Costs()
		c.PredictTime += mc.PredictTime
		c.InsertTime += mc.InsertTime
		c.CompressTime += mc.CompressTime
		c.Predictions += mc.Predictions
		c.Inserts += mc.Inserts
		c.Compressions += mc.Compressions
	}
	return c
}

func costsDelta(a, b core.Costs) core.Costs {
	return core.Costs{
		PredictTime: b.PredictTime - a.PredictTime, InsertTime: b.InsertTime - a.InsertTime,
		CompressTime: b.CompressTime - a.CompressTime, Predictions: b.Predictions - a.Predictions,
		Inserts: b.Inserts - a.Inserts, Compressions: b.Compressions - a.Compressions,
	}
}

// cacheCounts is one buffer cache's counters at a point in time.
type cacheCounts struct{ hits, misses, evictions, ghosts int64 }

func readCache(c *buffercache.Cache) cacheCounts {
	return cacheCounts{c.Hits(), c.Misses(), c.Evictions(), c.GhostHits()}
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions, c.ghosts - o.ghosts}
}

// sampledQuery is a timed query kept for the as-given re-execution check.
type sampledQuery struct {
	sql      string
	rows     []engine.Row
	selected []engine.Row
}

func runUDFQuery(o options) (*outcome, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// Set-up: substrates, models and the warm-up prefix of the stream,
	// repeated so set-up time is a median.
	var u *udfDB
	var stream *queryStream
	var setups []float64
	for rep := 0; rep < o.setupReps; rep++ {
		start := time.Now()
		var err error
		if u, err = buildUDFDB(); err != nil {
			return nil, err
		}
		stream = &queryStream{rng: rand.New(rand.NewSource(o.seed)), vocab: float64(u.tdb.VocabSize())}
		for i := 0; i < udfWarmupQueries; i++ {
			sql, rows := stream.next()
			if _, err := u.exec(sql, rows, engine.OrderByRank); err != nil {
				return nil, fmt.Errorf("warm-up query %d: %w", i, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	u.tr = tr

	var (
		lat                   []float64
		ends                  []time.Duration
		queries, rows, failed int64
		guardRejections       int64
		samples               []sampledQuery
		winCost               float64
		winEvals, winRows     int64
		winShape              quadtree.Stats
		winText, winSpatial   cacheCounts
		modelUs               float64
	)
	memBefore := readMem()
	costStart := u.modelCosts()
	textStart, spatialStart := readCache(u.tdb.Cache()), readCache(u.sdb.Cache())
	u.counting, u.recording = true, true
	deadline := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	for queries < int64(udfWindowQueries) || time.Since(begin) < deadline {
		sql, batch := stream.next()
		tr.begin("query")
		if tr != nil {
			tr.begin("minisql.parse")
			if _, err := minisql.Parse(sql); err != nil {
				return nil, err
			}
			tr.end()
		}
		var before core.Costs
		if tr != nil {
			before = u.modelCosts()
		}
		start := time.Now()
		tr.begin("engine.exec")
		res, err := u.exec(sql, batch, engine.OrderByRank)
		tr.end()
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end()
		if tr != nil {
			d := costsDelta(before, u.modelCosts())
			modelUs += float64((d.UpdateTime() + d.PredictTime).Nanoseconds()) / 1e3
		}
		queries++
		rows += int64(len(batch))
		if err != nil {
			failed += int64(len(batch))
			continue
		}
		ends = append(ends, time.Since(begin))
		failed += res.Stats.Faults.ExecFailures
		guardRejections += res.Stats.Faults.Quarantined + res.Stats.Faults.Rejected + res.Stats.Faults.Skipped
		if u.counting {
			winCost += res.Stats.TotalCost
			winRows += int64(len(batch))
			for _, n := range res.Stats.Evaluations {
				winEvals += n
			}
			if queries == int64(udfWindowQueries) {
				u.counting = false
				c := costsDelta(costStart, u.modelCosts())
				winShape.Compressions, winShape.Inserts = c.Compressions, c.Inserts
				for _, m := range u.models {
					st := m.Tree().Stats()
					winShape.Nodes += st.Nodes
					winShape.MemoryBytes += st.MemoryBytes
				}
				winText = readCache(u.tdb.Cache()).sub(textStart)
				winSpatial = readCache(u.sdb.Cache()).sub(spatialStart)
			}
		}
		if queries%udfCheckEvery == 0 && len(samples) < udfCheckMax {
			samples = append(samples, sampledQuery{sql: sql, rows: batch, selected: res.Rows})
		}
	}
	elapsed := time.Since(begin)
	u.recording = false
	memAfter := readMem()
	costs := costsDelta(costStart, u.modelCosts())
	failed += u.execErrs

	out := &outcome{e2e: report{}, layer: report{}, attempted: rows, failed: failed, spans: tr}
	out.checkErr = checkAsGiven(samples)

	e := out.e2e
	e.set("setup_s", median(setups))
	e.set("ops_per_s", chunkedRate(ends, udfBatchRows, elapsed))
	e.set("op_p50_us", chunked(lat, 0.50))
	out.layer.set("loadgen.op_p99_us", chunked(lat, 0.99))
	out.layer.set("loadgen.visible_p50_us", chunked(u.visible, 0.50))
	out.layer.set("loadgen.visible_p99_us", chunked(u.visible, 0.99))
	e.set("nae", u.nae.Value())
	lat, ends, u.visible = nil, nil, nil // the heap is the program's, not the samples'
	e.set("heap_mb", liveHeapMB())

	l := out.layer
	l.set("minisql.parse_us", tr.meanUs("minisql.parse"))
	l.set("engine.query_us", tr.meanUs("engine.exec"))
	l.set("engine.self_us", tr.selfUs("engine.exec")-modelUs/float64(queries))
	l.set("engine.evals_per_row", float64(winEvals)/float64(winRows))
	l.set("engine.plan_cost_per_row", winCost/float64(winRows))
	l.set("engine.guard_rejections", float64(guardRejections))
	l.set("textdb.eval_us", tr.meanUs("textdb.eval"))
	l.set("spatialdb.eval_us", tr.meanUs("spatialdb.eval"))
	l.set("udf.cpu_units_per_eval", u.cpu/float64(u.evals))
	l.set("udf.io_pages_per_eval", u.io/float64(u.evals))
	for _, c := range []struct {
		name string
		d    cacheCounts
	}{{"text", winText}, {"spatial", winSpatial}} {
		d, p := c.d, "buffercache."+c.name+"."
		l.set(p+"hit_ratio", float64(d.hits)/float64(max(d.hits+d.misses, 1)))
		l.set(p+"misses_per_query", float64(d.misses)/udfWindowQueries)
		l.set(p+"evictions", float64(d.evictions))
		l.set(p+"ghost_hits", float64(d.ghosts))
	}
	setQuadtreeCosts(l, costs)
	setTreeShape(l, winShape)
	setGoMetrics(l, memBefore, memAfter, rows)
	l.set("loadgen.failed_ratio", float64(failed)/float64(rows))
	return out, nil
}

// setQuadtreeCosts reports the paper's modeling-cost split (Fig. 10) from
// a Costs delta.
func setQuadtreeCosts(l report, c core.Costs) {
	if c.Predictions > 0 {
		l.set("quadtree.predict_ns", float64(c.APC().Nanoseconds()))
	}
	l.set("quadtree.insert_us", mean(float64(c.InsertTime.Nanoseconds()), c.Inserts)/1e3)
	l.set("quadtree.compress_us", mean(float64(c.CompressTime.Nanoseconds()), c.Compressions)/1e3)
}

// checkAsGiven re-runs the sampled queries with the as-written predicate
// order on a freshly built, identically seeded database: rank ordering
// must select exactly the same rows.
func checkAsGiven(samples []sampledQuery) error {
	if len(samples) == 0 {
		return fmt.Errorf("udf_query: no query was sampled for the as-given check")
	}
	ref, err := buildUDFDB()
	if err != nil {
		return err
	}
	for i, s := range samples {
		res, err := ref.exec(s.sql, s.rows, engine.OrderAsGiven)
		if err != nil {
			return fmt.Errorf("udf_query: as-given re-run of sample %d: %w", i, err)
		}
		if !slices.EqualFunc(res.Rows, s.selected, func(a, b engine.Row) bool { return slices.Equal(a, b) }) {
			return fmt.Errorf("udf_query: sample %d (%s) selected %d rows rank-ordered, %d as given", i, s.sql, len(s.selected), len(res.Rows))
		}
	}
	return nil
}
