package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/replica"
	"mlq/internal/replica/nettransport"
	"mlq/internal/synthetic"
)

// ingest_fleet: replicated writes. An open loop at a fixed offered rate
// into replica.Group.Handle().Observe on a two-replica group over
// nettransport loopback, with Group.Checkpoint every fixed number of
// observations. The generator sleeps between sends and samples the
// follower's View.Seq between them.
const (
	fleetModelBytes      = 32 << 10 // MLQ-E, about 1600 nodes
	fleetRate            = 1000.0   // offered observations per second
	fleetCheckpointEvery = 2000
	fleetWarmup          = 4000 // set-up observations: the tree starts full
	fleetPoll            = 100 * time.Microsecond
	fleetProbePoints     = 20_000
	fleetFollower        = "r1"
	// fleetVisibleLimitUs is the visible-latency p99 limit a ladder step
	// must meet to count towards loadgen.max_rate_ops_per_s.
	fleetVisibleLimitUs = 20_000
	fleetLadderStep     = time.Second
)

var fleetLadder = []float64{1000, 2000, 4000, 8000, 16000}

// fleet is one running replica group and the models it was built with.
type fleet struct {
	closed bool
	dir    string
	net    *nettransport.NetTransport
	g      *replica.Group
	models []*core.MLQ
}

func startFleet(surf *synthetic.Surface, seed int64, rep int, sp *spine) (*fleet, error) {
	region := surf.Region()
	dir := filepath.Join(".bench_build", "run", fmt.Sprintf("fleet-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.net = nettransport.New(nettransport.Config{
		Seed: seed, Events: sp.recorder(), QueueCapacity: 4096,
		BackoffBase: 2 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
	})
	g, err := replica.New(replica.Config{
		Replicas: 2,
		Dir:      dir,
		NewModel: func() (*core.MLQ, error) {
			m, err := core.NewMLQ(quadtree.Config{Region: region, Strategy: quadtree.Eager, MemoryLimit: fleetModelBytes})
			if err == nil {
				f.models = append(f.models, m)
			}
			return m, err
		},
		Transport: f.net,
		Events:    sp.recorder(),
	})
	if err != nil {
		f.net.Close()
		return nil, err
	}
	f.g = g
	// The links dial lazily; measure only once the stream link is up.
	deadline := time.Now().Add(5 * time.Second)
	for !f.net.LinkUp(fleetFollower) {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("ingest_fleet: stream link to %s never came up", fleetFollower)
		}
		time.Sleep(time.Millisecond)
	}
	// Warm-up is set-up state, fixed across seeds like the surface.
	h := g.Handle()
	warm := dist.NewUniform(region, substrateSeed)
	for i := 0; i < fleetWarmup; i++ {
		p := warm.Next()
		if err := h.Observe(p, surf.Cost(p)); err != nil {
			f.close()
			return nil, fmt.Errorf("ingest_fleet: warm-up: %w", err)
		}
	}
	if err := g.Converge(); err != nil {
		f.close()
		return nil, fmt.Errorf("ingest_fleet: warm-up: %w", err)
	}
	if err := g.Checkpoint(); err != nil {
		f.close()
		return nil, fmt.Errorf("ingest_fleet: warm-up: %w", err)
	}
	return f, nil
}

// close stops the group and the transport and removes the run directory.
func (f *fleet) close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.g.Close()
	f.net.Close()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

func (f *fleet) followerSeq() uint64 {
	if v := f.g.View(fleetFollower); v != nil {
		return v.Seq
	}
	return 0
}

// loopStats is what one open-loop phase measured.
type loopStats struct {
	ack, visible  []float64
	lateUs        []float64
	acked, failed int64
	backlogMax    int64
	staleMax      uint64
	elapsed       time.Duration
	checkpointMs  []float64
}

// openLoop offers n observations at rate per second, timing each ack and
// each observation's visibility on the follower from when it was due.
func (f *fleet) openLoop(src dist.PointSource, surf *synthetic.Surface, rate float64, n int, tr *tracer) (*loopStats, error) {
	h := f.g.Handle()
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	st := &loopStats{}
	base := f.followerSeq()
	var dueOfSeq []time.Duration // due time of the k-th acknowledged observation
	sent, visible := 0, 0
	lastSample := time.Duration(-1)
	begin := time.Now()
	for sent < n || visible < len(dueOfSeq) {
		now := time.Since(begin)
		seq := int(f.followerSeq() - base)
		for ; visible < seq && visible < len(dueOfSeq); visible++ {
			st.visible = append(st.visible, float64((now-dueOfSeq[visible]).Nanoseconds())/1e3)
		}
		dueNow := min(int(now.Seconds()*rate)+1, n)
		st.backlogMax = max(st.backlogMax, int64(dueNow-seq))
		if now-lastSample >= 10*time.Millisecond {
			lastSample = now
			gs := f.g.Stats()
			for _, r := range gs.Replicas {
				if r.Role == replica.RolePrimary && gs.Acked > r.Applied {
					st.staleMax = max(st.staleMax, gs.Acked-r.Applied)
				}
			}
		}
		for sent < n && due(sent) <= time.Since(begin) {
			p := src.Next()
			d := due(sent)
			st.lateUs = append(st.lateUs, float64((time.Since(begin)-d).Nanoseconds())/1e3)
			tr.begin("core.observe")
			err := h.Observe(p, surf.Cost(p))
			tr.end()
			at := time.Since(begin)
			st.ack = append(st.ack, float64((at-d).Nanoseconds())/1e3)
			sent++
			if err != nil {
				st.failed++
				continue
			}
			st.acked++
			dueOfSeq = append(dueOfSeq, d)
			if st.acked%fleetCheckpointEvery == 0 {
				start := time.Now()
				tr.begin("replica.checkpoint")
				err := f.g.Checkpoint()
				tr.end()
				st.checkpointMs = append(st.checkpointMs, float64(time.Since(start).Nanoseconds())/1e6)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
			}
		}
		if sent == n && st.elapsed == 0 {
			st.elapsed = time.Since(begin)
		}
		if time.Since(begin) > due(n)+10*time.Second {
			return nil, fmt.Errorf("ingest_fleet: %d of %d observations never became visible on %s", len(dueOfSeq)-visible, len(dueOfSeq), fleetFollower)
		}
		wait := fleetPoll
		if sent < n {
			wait = min(wait, due(sent)-time.Since(begin))
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	return st, nil
}

// maxRate climbs the rate ladder on a running fleet and returns the acked
// rate of the highest step whose visible p99 met the limit and whose every
// observation became visible, which rules out a growing backlog.
func (f *fleet) maxRate(src dist.PointSource, surf *synthetic.Surface) (float64, error) {
	best := 0.0
	for _, rate := range fleetLadder {
		n := int(rate * fleetLadderStep.Seconds())
		st, err := f.openLoop(src, surf, rate, n, nil)
		if err != nil {
			return 0, err
		}
		if st.failed > 0 || percentile(st.visible, 0.99) > fleetVisibleLimitUs {
			break
		}
		best = float64(st.acked) / st.elapsed.Seconds()
	}
	return best, nil
}

func runIngestFleet(o options) (*outcome, error) {
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

	var f *fleet
	var setups []float64
	for rep := 0; rep < o.setupReps; rep++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if f, err = startFleet(surf, o.seed, rep, sp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer f.close()

	src := dist.NewUniform(region, o.seed)
	n := int(math.Round(fleetRate * o.seconds))
	// Set-up ended with Converge, which synchronizes with the primary's
	// writer, so its model's counters are safe to read until the loop starts.
	pm := f.models[0]
	costs0 := pm.Costs()
	before := f.g.Stats()
	memBefore := readMem()
	sp.start()
	st, err := f.openLoop(src, surf, fleetRate, n, tr)
	if err != nil {
		return nil, err
	}
	memAfter := readMem()
	after := f.g.Stats()

	out := &outcome{e2e: report{}, layer: report{}, attempted: int64(n), failed: st.failed, spans: tr}
	if err := f.g.Converge(); err != nil {
		return nil, fmt.Errorf("converge: %w", err)
	}
	out.checkErr = f.checkConverged()
	var nae metrics.NAE
	probe := dist.NewUniform(region, o.seed+1)
	for i := 0; i < fleetProbePoints; i++ {
		p := probe.Next()
		v, _ := f.g.Predict(fleetFollower, p)
		nae.Add(v, surf.Cost(p))
	}
	e := out.e2e
	e.set("setup_s", median(setups))
	e.set("ops_per_s", float64(st.acked)/st.elapsed.Seconds())
	e.set("op_p50_us", chunked(st.ack, 0.50))
	out.layer.set("loadgen.op_p99_us", chunked(st.ack, 0.99))
	out.layer.set("loadgen.visible_p50_us", chunked(st.visible, 0.50))
	out.layer.set("loadgen.visible_p99_us", chunked(st.visible, 0.99))
	e.set("nae", nae.Value())
	st.ack, st.visible = nil, nil // the heap is the program's, not the samples'
	e.set("heap_mb", liveHeapMB())

	net, ns := f.net.Stats(), f.net.NetStats()
	follower := replicaStats(after, fleetFollower)
	primary, primary0 := replicaStats(after, "r0"), replicaStats(before, "r0")
	if err := f.close(); err != nil {
		return nil, err
	}

	l := out.layer
	// The group has closed, so the primary's model is safe to read.
	setQuadtreeCosts(l, costsDelta(costs0, pm.Costs()))
	setTreeShape(l, pm.Tree().Stats())
	l.set("core.observe_us", tr.meanUs("core.observe"))
	l.set("core.drain_lag_us", sp.hopMeanUs(events.KindBatchDrain))
	l.set("core.publish_lag_us", sp.publishLagUs())
	l.set("core.batch_mean", float64(primary.Applied-primary0.Applied)/float64(max(primary.Epoch-primary0.Epoch, 1)))
	l.set("core.staleness_max", float64(st.staleMax))
	l.set("journal.append_lag_us", sp.hopMeanUs(events.KindJournalAppend))
	l.set("replica.checkpoint_ms", mean(sum(st.checkpointMs), int64(len(st.checkpointMs))))
	l.set("replica.send_lag_us", sp.hopMeanUs(events.KindSend))
	l.set("replica.apply_lag_us", sp.hopMeanUs(events.KindApply))
	l.set("replica.catchup_records", float64(follower.Catchup))
	l.set("nettransport.wire_us", sp.hopMeanUs(events.KindRecv)-sp.hopMeanUs(events.KindSend))
	l.set("nettransport.overflowed", float64(net.Overflowed))
	l.set("nettransport.dropped", float64(net.Dropped))
	l.set("nettransport.frames_damaged", float64(ns.FramesDamaged))
	l.set("nettransport.reconnects", float64(ns.Reconnects))
	l.set("loadgen.late_p99_us", percentile(st.lateUs, 0.99))
	l.set("loadgen.backlog_max", float64(st.backlogMax))
	l.set("loadgen.failed_ratio", float64(st.failed)/float64(n))
	if o.ladder {
		// The capacity ladder runs on a fleet of its own, after the
		// measured one is closed and read.
		lf, err := startFleet(surf, o.seed, o.setupReps, nil)
		if err != nil {
			return nil, err
		}
		maxRate, err := lf.maxRate(src, surf)
		if cerr := lf.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		l.set("loadgen.max_rate_ops_per_s", maxRate)
	}
	l.set("events.dropped", sp.dropped())
	setGoMetrics(l, memBefore, memAfter, int64(n))
	return out, nil
}

// checkConverged requires the follower's model bytes to equal the
// primary's after Converge, with no acknowledged observation lost.
func (f *fleet) checkConverged() error {
	pb, err := f.g.ModelBytes(f.g.PrimaryID())
	if err != nil {
		return err
	}
	fb, err := f.g.ModelBytes(fleetFollower)
	if err != nil {
		return err
	}
	if !bytes.Equal(pb, fb) {
		return fmt.Errorf("ingest_fleet: follower model (%d bytes) differs from the primary's (%d bytes) after Converge", len(fb), len(pb))
	}
	if lost := f.g.Stats().AckedLost; lost != 0 {
		return fmt.Errorf("ingest_fleet: %d acknowledged observations lost", lost)
	}
	return nil
}

func replicaStats(gs replica.GroupStats, id string) replica.ReplicaStats {
	for _, r := range gs.Replicas {
		if r.ID == id {
			return r
		}
	}
	return replica.ReplicaStats{}
}
