package main

import (
	"sort"

	"mlq/internal/events"
	"mlq/internal/telemetry"
)

// spineRingSize is the per-subsystem ring capacity of a traced run. The
// hop-lag histograms cover the whole run; the rings only feed the publish
// join, which needs a recent window, not the full history.
const spineRingSize = 4096

// spine is the program's causal event spine, installed through the public
// Events fields in traced runs, with its telemetry mirror to read the hop
// lags from.
type spine struct {
	rec *events.Recorder
	reg *telemetry.Registry
}

func newSpine(seed int64) *spine {
	return &spine{rec: events.New(events.Config{Seed: uint64(seed), RingSize: spineRingSize}), reg: telemetry.New()}
}

// start mirrors the spine into the registry from now on, so hop lags and
// drop counts cover the timed phase, not set-up and warm-up.
func (s *spine) start() {
	if s != nil {
		s.rec.Instrument(s.reg)
	}
}

// recorder returns the recorder to install, nil when untraced.
func (s *spine) recorder() *events.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// hopMeanUs is the mean mint-to-hop lag of one hop kind, in microseconds.
func (s *spine) hopMeanUs(k events.Kind) float64 {
	if s == nil {
		return 0
	}
	h := s.reg.Histogram("mlq_events_hop_lag_seconds", "lag from causal-ID mint to this hop", telemetry.L("hop", k.String()))
	return mean(h.Sum(), h.Count()) * 1e6
}

// dropped counts ring events overwritten before the run ended.
func (s *spine) dropped() float64 {
	if s == nil {
		return 0
	}
	return float64(s.reg.Counter("mlq_events_dropped_total", "ring-buffer events overwritten before any dump saw them").Value())
}

// publishLagUs joins the rings' accept events with the primary publisher's
// epoch publishes: for each accepted sequence still in the ring, the time
// until the first publish whose watermark covers it. Returns the median in
// microseconds.
func (s *spine) publishLagUs() float64 {
	if s == nil {
		return 0
	}
	type pub struct {
		seq uint64
		ts  int64
	}
	var observes, pubs []pub
	for _, e := range s.rec.Snapshot() {
		switch {
		case e.Kind == events.KindObserve:
			observes = append(observes, pub{e.A, e.TS})
		case e.Kind == events.KindEpochPublish && e.Actor == 0:
			pubs = append(pubs, pub{e.B, e.TS})
		}
	}
	sort.Slice(observes, func(i, j int) bool { return observes[i].seq < observes[j].seq })
	var lags []float64
	p := 0
	for _, o := range observes {
		for p < len(pubs) && pubs[p].seq < o.seq {
			p++
		}
		if p == len(pubs) {
			break
		}
		lags = append(lags, float64(pubs[p].ts-o.ts)/1e3)
	}
	return median(lags)
}
