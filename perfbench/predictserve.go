package main

import (
	"fmt"
	"math"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/synthetic"
)

// predict_serve: read-mostly model serving. A core.Publisher wraps an
// MLQ-L model trained in set-up on the synthetic surface; one closed-loop
// client predicts in fixed-size batches on Gaussian-sequential points and,
// between batches, issues Observe calls on a fixed open-loop schedule so
// snapshots keep republishing.
const (
	predictModelBytes  = 1 << 20 // about 52k nodes, an arena larger than L2
	predictTrainPoints = 60_000  // fills the budget
	predictBatch       = 128     // predicts timed together
	predictPointsLen   = 1 << 16 // cycled predict points, generated in set-up
	predictObserveRate = 100.0   // observations per second
	predictProbePoints = 20_000
	predictAllocProbe  = 100_000
)

// surface returns the fixed synthetic cost surface (the data, not the
// workload: --seed varies the streams, not the surface).
func surface() (*synthetic.Surface, error) {
	return synthetic.Generate(synthetic.Config{Seed: substrateSeed})
}

// predictSetup is one assembled predict_serve system.
type predictSetup struct {
	model    *core.MLQ
	ref      *core.MLQ // serial reference: the trained tree before wrapping
	pub      *core.Publisher
	accepted []core.Accepted
	trained  int64
}

func setupPredict(surf *synthetic.Surface, sp *spine) (*predictSetup, error) {
	m, err := core.NewMLQ(quadtree.Config{Region: surf.Region(), Strategy: quadtree.Lazy, MemoryLimit: predictModelBytes})
	if err != nil {
		return nil, err
	}
	// The trained model is set-up state, like the surface: fixed across
	// seeds, so --seed varies only the served stream.
	train := dist.NewUniform(surf.Region(), substrateSeed)
	for i := 0; i < predictTrainPoints; i++ {
		p := train.Next()
		if err := m.Observe(p, surf.Cost(p)); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
	}
	s := &predictSetup{model: m, ref: core.NewMLQFrom(m.Tree().Clone()), trained: m.Tree().Inserts()}
	if s.pub, err = core.NewPublisher(m, core.PublisherConfig{Events: sp.recorder()}); err != nil {
		return nil, err
	}
	s.pub.Subscribe(func(acc core.Accepted) {
		acc.Point = acc.Point.Clone()
		s.accepted = append(s.accepted, acc)
	})
	return s, nil
}

// hotRegionSeed fixes where the Gaussian-sequential hot regions sit, so
// every seed serves the same traffic shape; --seed varies the draws.
const hotRegionSeed = substrateSeed + 100

// gaussSeq draws n points from the Gaussian-sequential distribution.
func gaussSeq(region geom.Rect, n int, pointSeed int64) ([]geom.Point, error) {
	src, err := dist.NewGaussianSequentialSeeded(region, 3, n, 0.05, hotRegionSeed, pointSeed)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.Next()
	}
	return pts, nil
}

func runPredictServe(o options) (*outcome, error) {
	var tr *tracer
	var sp *spine
	if o.traced {
		tr, sp = newTracer(), newSpine(o.seed)
	}
	surf, err := surface()
	if err != nil {
		return nil, err
	}
	region := surf.Region()

	var s *predictSetup
	var pts, obsPts []geom.Point
	var setups []float64
	for rep := 0; rep < o.setupReps; rep++ {
		if s != nil {
			if err := s.pub.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if s, err = setupPredict(surf, sp); err != nil {
			return nil, err
		}
		if pts, err = gaussSeq(region, predictPointsLen, o.seed+1); err != nil {
			return nil, err
		}
		if obsPts, err = gaussSeq(region, predictPointsLen, o.seed+2); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	pub := s.pub
	defer pub.Close()

	nObs := int(math.Round(predictObserveRate * o.seconds))
	due := func(i int) time.Duration {
		return time.Duration(float64(i) / predictObserveRate * float64(time.Second))
	}
	var (
		lat, vis         []float64
		ends             []time.Duration
		lateUs           []float64
		predicts, failed int64
		issued, visible  int
		backlogMax       int64
		staleMax         int64
		sink             float64
		k                int
	)
	covered := func() int { return int(pub.Snapshot().Inserts() - s.trained) }
	epoch0, applied0 := pub.Epoch(), pub.Stats().Applied
	memBefore := readMem()
	sp.start()
	deadline := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	for {
		t0 := time.Now()
		for j := 0; j < predictBatch; j++ {
			v, ok := pub.Predict(pts[k])
			if !ok {
				failed++
			}
			sink += v
			k = (k + 1) & (predictPointsLen - 1)
		}
		t1 := time.Now()
		tr.record("quadtree.predict_batch", t0, t1)
		el := t1.Sub(begin)
		lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/predictBatch/1e3)
		ends = append(ends, el)
		predicts += predictBatch
		for c := covered(); visible < c; visible++ {
			vis = append(vis, float64((el-due(visible)).Nanoseconds())/1e3)
		}
		for issued < nObs && due(issued) <= el {
			p := obsPts[issued&(predictPointsLen-1)]
			start := time.Now()
			lateUs = append(lateUs, float64((start.Sub(begin)-due(issued)).Nanoseconds())/1e3)
			tr.begin("core.observe")
			err := pub.Observe(p, surf.Cost(p))
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("observe %d: %w", issued, err)
			}
			issued++
		}
		staleMax = max(staleMax, pub.Staleness())
		dueNow := min(int(el.Seconds()*predictObserveRate)+1, nObs)
		backlogMax = max(backlogMax, int64(dueNow-visible))
		if el >= deadline && issued == nObs {
			break
		}
	}
	elapsed := time.Since(begin)
	memAfter := readMem()
	// Observations still in flight become visible after the loop; wait for
	// them so every observation has a visibility sample.
	for visible < nObs {
		el := time.Since(begin)
		for c := covered(); visible < c; visible++ {
			vis = append(vis, float64((el-due(visible)).Nanoseconds())/1e3)
		}
		if el > deadline+10*time.Second {
			return nil, fmt.Errorf("predict_serve: %d of %d observations never became visible", nObs-visible, nObs)
		}
		time.Sleep(20 * time.Microsecond)
	}
	if err := pub.Flush(); err != nil {
		return nil, err
	}
	epochs, applied := pub.Epoch()-epoch0, pub.Stats().Applied-applied0

	var allocs float64
	if o.traced {
		before := readMem()
		for j := 0; j < predictAllocProbe; j++ {
			v, _ := pub.Predict(pts[j&(predictPointsLen-1)])
			sink += v
		}
		allocs = float64(readMem().mallocs-before.mallocs) / predictAllocProbe
	}

	// Accuracy of the served model over the whole data space: the hot
	// regions' few observations move it little, so it tracks the model, not
	// the draw.
	probe := make([]geom.Point, predictProbePoints)
	probeSrc := dist.NewUniform(region, o.seed+3)
	for i := range probe {
		probe[i] = probeSrc.Next()
	}
	var nae metrics.NAE
	for _, p := range probe {
		v, _ := pub.Predict(p)
		nae.Add(v, surf.Cost(p))
	}
	out := &outcome{e2e: report{}, layer: report{}, attempted: predicts + int64(nObs), failed: failed, spans: tr}
	out.checkErr = checkSerialEquivalence(pub, s, probe, nObs)
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("predict_serve: prediction sum is NaN")
	}

	e := out.e2e
	e.set("setup_s", median(setups))
	e.set("ops_per_s", chunkedRate(ends, predictBatch, elapsed))
	e.set("op_p50_us", chunked(lat, 0.50))
	out.layer.set("loadgen.op_p99_us", chunked(lat, 0.99))
	out.layer.set("loadgen.visible_p50_us", chunked(vis, 0.50))
	out.layer.set("loadgen.visible_p99_us", chunked(vis, 0.99))
	e.set("nae", nae.Value())
	lat, vis, ends = nil, nil, nil // the heap is the program's, not the samples'
	e.set("heap_mb", liveHeapMB())
	if err := pub.Close(); err != nil {
		return nil, err
	}

	l := out.layer
	l.set("quadtree.predict_ns", tr.meanUs("quadtree.predict_batch")*1e3/predictBatch)
	l.set("quadtree.allocs_per_predict", allocs)
	setQuadtreeCosts(l, s.model.Costs())
	setTreeShape(l, s.model.Tree().Stats())
	l.set("core.observe_us", tr.meanUs("core.observe"))
	l.set("core.drain_lag_us", sp.hopMeanUs(events.KindBatchDrain))
	l.set("core.publish_lag_us", sp.publishLagUs())
	l.set("core.batch_mean", float64(applied)/float64(max(epochs, 1)))
	l.set("core.staleness_max", float64(staleMax))
	l.set("loadgen.late_p99_us", percentile(lateUs, 0.99))
	l.set("loadgen.backlog_max", float64(backlogMax))
	l.set("loadgen.failed_ratio", float64(failed)/float64(out.attempted))
	l.set("events.dropped", sp.dropped())
	setGoMetrics(l, memBefore, memAfter, predicts)
	return out, nil
}

// setTreeShape reports a tree's size and compression counts.
func setTreeShape(l report, st quadtree.Stats) {
	l.set("quadtree.compressions", float64(st.Compressions))
	l.set("quadtree.compressions_per_insert", float64(st.Compressions)/float64(max(st.Inserts, 1)))
	l.set("quadtree.nodes", float64(st.Nodes))
	l.set("quadtree.memory_bytes", float64(st.MemoryBytes))
}

// checkSerialEquivalence feeds the accepted sequence from Subscribe into
// the serial reference (a clone of the trained tree) and requires the
// publisher's predictions on the probe set to be bit-identical to it.
func checkSerialEquivalence(pub *core.Publisher, s *predictSetup, probe []geom.Point, want int) error {
	if len(s.accepted) != want {
		return fmt.Errorf("predict_serve: %d observations accepted, %d issued", len(s.accepted), want)
	}
	for _, acc := range s.accepted {
		if err := s.ref.Observe(acc.Point, acc.Value); err != nil {
			return fmt.Errorf("predict_serve: reference observe %d: %w", acc.Seq, err)
		}
	}
	for i, p := range probe {
		got, gok := pub.Predict(p)
		want, wok := s.ref.Predict(p)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("predict_serve: probe %d: publisher predicts %v (%v), serial reference %v (%v)", i, got, gok, want, wok)
		}
	}
	return nil
}
