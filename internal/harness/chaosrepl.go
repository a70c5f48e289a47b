package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/replica"
	"mlq/internal/replica/nettransport"
	"mlq/internal/telemetry"
)

// chaosReplNetFaultP is the per-record probability of each network fault
// (drop, duplicate, reorder) in the net-chaos scenario.
const chaosReplNetFaultP = 0.05

// The replicated fleet every chaos scenario runs: three replicas, one of
// them the primary.
const (
	chaosReplicas = 3
	// chaosMaxBatch is the primary publisher's batch bound — and therefore
	// the hard ceiling on acknowledged observations a failover may lose,
	// which every scenario asserts.
	chaosMaxBatch = 16
	// chaosInboxCapacity bounds follower stream inboxes; with chaosMaxBatch
	// it bounds the follower staleness the clean scenario asserts.
	chaosInboxCapacity = 1024
)

// chaosAction is one fault a fleet scenario schedules. The set is closed;
// none takes an argument (the partition victim is always the last replica,
// never the initial primary r0).
type chaosAction int

const (
	// actPartition cuts the victim off the stream.
	actPartition chaosAction = iota
	// actHeal reconnects the victim.
	actHeal
	// actFailover kills the primary and promotes a follower; the old
	// lineage's handle must then be fenced, and the killed primary rejoins
	// before convergence.
	actFailover
	// actCheckpoint compacts the journal into a catalog checkpoint.
	actCheckpoint
	// actBootstrapKill pulls the primary's durable snapshot over the socket
	// plane's bootstrap RPC with a connection reset aimed mid-transfer.
	actBootstrapKill
)

var chaosActionNames = [...]string{"partition", "heal", "failover", "checkpoint", "bootstrap-kill"}

func (a chaosAction) String() string { return chaosActionNames[a] }

// chaosStep fires act before query n*num/den of an n-query workload; a step
// with num == den fires after the workload has converged.
type chaosStep struct {
	num, den int
	act      chaosAction
}

// chaosScenario is one fault story: a schedule of steps plus, when
// netFaults is set, the plane's seeded network faults throughout (record
// drop/duplicate/reorder in MemTransport, connection resets, truncation and
// read delays on sockets). The assertions are derived from both.
type chaosScenario struct {
	name      string
	steps     []chaosStep
	netFaults bool
}

func (sc chaosScenario) has(a chaosAction) bool {
	for _, s := range sc.steps {
		if s.act == a {
			return true
		}
	}
	return false
}

// chaosScenarios is every fleet fault story. The mem plane has no bootstrap
// RPC, so ChaosRepl runs all but mid-bootstrap-kill.
var chaosScenarios = []chaosScenario{
	{name: "clean"},
	{name: "kill-primary", steps: []chaosStep{{1, 2, actFailover}}},
	// The checkpoint compacts the journal while the victim is cut off, so
	// healing alone cannot repair it — only a checkpoint resync can.
	{name: "partition-heal", steps: []chaosStep{{1, 4, actPartition}, {1, 2, actCheckpoint}, {3, 4, actHeal}}},
	{name: "net-chaos", netFaults: true, steps: []chaosStep{{1, 3, actPartition}, {1, 2, actFailover}, {2, 3, actHeal}}},
	// The mid-run checkpoint makes the shipped snapshot a catalog
	// checkpoint plus a journal suffix, not just one or the other.
	{name: "mid-bootstrap-kill", steps: []chaosStep{{1, 2, actCheckpoint}, {1, 1, actBootstrapKill}}},
}

// ChaosReplCell is one scenario's outcome: the replication accounting that
// proves convergence was earned, not assumed. The socket counters stay zero
// on the in-process plane.
type ChaosReplCell struct {
	Scenario string
	NAE      float64 // primary-side prediction accuracy over the workload

	Acked        uint64 // acknowledged observation high-water mark
	AckedLost    uint64 // acknowledged observations lost across failovers
	Failovers    int64
	FencedWrites int64  // writes rejected with ErrFencedTerm
	MaxLag       uint64 // max follower sequence lag sampled mid-run (reachable followers)

	Catchup    int64 // records recovered via journal catch-up / checkpoint resync
	Duplicates int64 // stream records deduplicated by followers

	Dropped, Duplicated, Reordered, Partitioned int64 // transport fault plane
	Overflowed                                  int64 // stream messages lost to a full follower inbox

	Reconnects       int64
	HeartbeatsMissed int64
	FramesDamaged    int64
	BootstrapChunks  int64
	BootstrapResumes int64
}

// chaosReplCost is the deterministic synthetic cost surface the workload
// observes: nonlinear enough that the quadtree actually refines, cheap
// enough that the experiment measures replication, not UDF execution.
func chaosReplCost(p geom.Point) float64 {
	return 5 + 0.3*p[0]*p[0] + 1.7*p[1] + 0.02*p[0]*p[1]
}

// ChaosRepl runs the replicated-fleet chaos experiment: a primary streams
// the Figure-1 feedback loop's observations to followers while the harness
// kills primaries mid-stream, partitions and heals followers, and (in the
// net-chaos scenario) drops, duplicates and reorders the stream itself.
// Every scenario ends in Converge and asserts:
//
//   - byte-identical model serialization across every live replica;
//   - when no acknowledged observation was lost, bit-identity with a plain
//     single-Publisher run of the same workload (the replication layer is
//     transparent — the clean scenario's version of severity 0);
//   - acknowledged loss bounded by one publisher batch (chaosMaxBatch);
//   - zero follower lag after convergence, and mid-run staleness within
//     the inbox + batch bound for reachable followers;
//   - no divergence hazards (failed record applies) anywhere.
func ChaosRepl(opts Options) ([]ChaosReplCell, error) {
	return runChaosPlane(memPlane, opts)
}

// chaosPlane is the transport a fleet scenario runs over.
type chaosPlane int

const (
	memPlane chaosPlane = iota // in-process MemTransport
	netPlane                   // loopback TCP sockets through nettransport
)

// transport builds a scenario's fault injector and transport on this
// plane; nt is the socket transport on the net plane and nil on the mem
// plane.
func (pl chaosPlane) transport(sc chaosScenario, opts Options) (inj *faults.Injector, tr replica.Transport, nt *nettransport.NetTransport) {
	if sc.netFaults {
		inj = faults.New(opts.Seed + 7919)
	} else if sc.has(actBootstrapKill) {
		// Idle until the step schedules its reset: a site counts its
		// consultations from Enable, so the reset lands where it is aimed.
		inj = faults.New(opts.Seed + 104729)
	}
	switch pl {
	case memPlane:
		if sc.netFaults {
			inj.Enable(faults.ReplicaDrop, faults.SiteConfig{Probability: chaosReplNetFaultP})
			inj.Enable(faults.ReplicaDup, faults.SiteConfig{Probability: chaosReplNetFaultP})
			inj.Enable(faults.ReplicaReorder, faults.SiteConfig{Probability: chaosReplNetFaultP})
		}
		return inj, replica.NewMemTransport(inj), nil
	default:
		if sc.netFaults {
			inj.Enable(faults.NetReset, faults.SiteConfig{Probability: 0.0015})
			inj.Enable(faults.NetTrunc, faults.SiteConfig{Probability: 0.004})
			inj.Enable(faults.NetDelay, faults.SiteConfig{Probability: 0.01, Delay: 200 * time.Microsecond, Burst: 4})
		}
		nt = nettransport.New(nettransport.Config{
			Injector:       inj,
			Seed:           opts.Seed,
			Events:         opts.Events,
			ChunkBytes:     chaosNetChunkBytes,
			HeartbeatEvery: chaosNetHeartbeatEvery,
			BarrierTimeout: chaosNetBarrierTimeout,
			BackoffBase:    2 * time.Millisecond,
			BackoffCap:     50 * time.Millisecond,
		})
		nt.Instrument(opts.Telemetry, telemetry.L("scenario", sc.name))
		return inj, nt, nt
	}
}

// runChaosPlane runs every scenario the plane supports and returns one cell
// per scenario.
func runChaosPlane(pl chaosPlane, opts Options) ([]ChaosReplCell, error) {
	opts = opts.withDefaults()

	dir, err := os.MkdirTemp("", "mlq-chaosfleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	region, err := geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100})
	if err != nil {
		return nil, err
	}

	// The transparency reference: the identical workload through one plain
	// Publisher, no replication anywhere near it.
	want, err := chaosReplReference(region, opts)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	var cells []ChaosReplCell
	for si, sc := range chaosScenarios {
		if pl == memPlane && sc.has(actBootstrapKill) {
			continue
		}
		cell, err := runChaosScenarioDriver(sc, pl, region, want, opts, filepath.Join(dir, fmt.Sprintf("s%d", si)))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// chaosReplReference serializes the single-Publisher ground truth.
func chaosReplReference(region geom.Rect, opts Options) ([]byte, error) {
	model, err := NewModel(MLQE, region, opts, nil)
	if err != nil {
		return nil, err
	}
	pub, err := core.NewPublisher(model.(*core.MLQ), core.PublisherConfig{MaxBatch: chaosMaxBatch})
	if err != nil {
		return nil, err
	}
	src, err := dist.NewSourceSeeded(dist.KindUniform, region, opts.Queries, opts.Seed, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	for q := 0; q < opts.Queries; q++ {
		p := src.Next()
		if err := pub.Observe(p, chaosReplCost(p)); err != nil {
			return nil, err
		}
	}
	if err := pub.Flush(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := pub.Snapshot().WriteTo(&buf); err != nil {
		return nil, err
	}
	if err := pub.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runChaosScenarioDriver drives one fault story end to end over a plane and
// makes the assertions its steps and the plane call for.
func runChaosScenarioDriver(sc chaosScenario, pl chaosPlane, region geom.Rect, want []byte, opts Options, dir string) (ChaosReplCell, error) {
	cell := ChaosReplCell{Scenario: sc.name}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cell, err
	}

	inj, tr, nt := pl.transport(sc, opts)
	mlqCfg := opts.mlqConfig(MLQE, region)
	g, err := replica.New(replica.Config{
		Replicas:      chaosReplicas,
		Dir:           dir,
		NewModel:      func() (*core.MLQ, error) { return core.NewMLQ(mlqCfg) },
		Transport:     tr,
		MaxBatch:      chaosMaxBatch,
		InboxCapacity: chaosInboxCapacity,
		Telemetry:     replica.NewGroupTelemetry(opts.Telemetry),
		Events:        opts.Events,
	})
	if err != nil {
		return cell, err
	}
	defer g.Close()
	if nt != nil {
		if err := settleLinks(nt, g); err != nil {
			return cell, fmt.Errorf("settle: %w", err)
		}
	}

	src, err := dist.NewSourceSeeded(dist.KindUniform, region, opts.Queries, opts.Seed, opts.Seed+1)
	if err != nil {
		return cell, err
	}

	n := opts.Queries
	// Mark the scenario boundary on the spine: a dump decoded later shows
	// which fault story the surrounding events belong to.
	opts.Events.Emit(events.SubHarness, events.KindMark, 0, uint64(n), 0)
	victim := fmt.Sprintf("r%d", chaosReplicas-1)
	var downed []string
	fire := func(s chaosStep) error {
		var err error
		switch s.act {
		case actPartition:
			g.Transport().Partition(victim)
		case actHeal:
			g.Transport().Heal(victim)
		case actFailover:
			old, stale := g.PrimaryID(), g.Handle()
			if _, err = g.Failover(); err == nil {
				downed = append(downed, old)
				err = expectFenced(stale)
			}
		case actCheckpoint:
			err = g.Checkpoint()
		case actBootstrapKill:
			err = bootstrapKill(g, nt, inj, dir)
		}
		if err != nil {
			return fmt.Errorf("step %d/%d %v: %w", s.num, s.den, s.act, err)
		}
		return nil
	}

	var nae metrics.NAE
	h := g.Handle()
	for q := 0; q < n; q++ {
		for _, s := range sc.steps {
			if s.num < s.den && n*s.num/s.den == q {
				if err := fire(s); err != nil {
					return cell, err
				}
				h = g.Handle() // steps may have moved the term
			}
		}
		p := src.Next()
		actual := chaosReplCost(p)
		if pred, ok := g.Predict(g.PrimaryID(), p); ok {
			if !core.ValidCost(pred) {
				return cell, fmt.Errorf("primary predicted invalid %v", pred)
			}
			nae.Add(pred, actual)
		}
		if err := h.Observe(p, actual); err != nil {
			return cell, fmt.Errorf("observe %d: %w", q, err)
		}
		if q%64 == 0 {
			cell.MaxLag = max(cell.MaxLag, sampleFollowerLag(g))
		}
	}
	cell.NAE = nae.Value()

	// Resurrect every killed primary before the convergence check: the
	// rejoin path (checkpoint resync + journal suffix) is part of what the
	// scenario proves.
	for _, id := range downed {
		if err := g.Rejoin(id); err != nil {
			return cell, fmt.Errorf("rejoin %s: %w", id, err)
		}
	}
	if err := g.Converge(); err != nil {
		return cell, fmt.Errorf("converge: %w", err)
	}
	for _, s := range sc.steps {
		if s.num == s.den {
			if err := fire(s); err != nil {
				return cell, err
			}
		}
	}

	st := g.Stats()
	cell.Acked = st.Acked
	cell.AckedLost = st.AckedLost
	cell.Failovers = st.Failovers
	cell.FencedWrites = st.FencedWrites
	cell.Dropped = st.Transport.Dropped
	cell.Duplicated = st.Transport.Duplicated
	cell.Reordered = st.Transport.Reordered
	cell.Partitioned = st.Transport.Partitioned
	cell.Overflowed = st.Transport.Overflowed
	for _, rs := range st.Replicas {
		cell.Catchup += rs.Catchup
		cell.Duplicates += rs.Duplicates
	}
	if nt != nil {
		ns := nt.NetStats()
		cell.Reconnects = ns.Reconnects
		cell.HeartbeatsMissed = ns.HeartbeatsMissed
		cell.FramesDamaged = ns.FramesDamaged
		cell.BootstrapChunks = ns.BootstrapChunks
		cell.BootstrapResumes = ns.BootstrapResumes
	}

	// --- Assertions every scenario makes --------------------------------

	if st.AckedLost > chaosMaxBatch {
		return cell, fmt.Errorf("lost %d acknowledged observations, bound is one batch (%d)", st.AckedLost, chaosMaxBatch)
	}
	if errs := g.ApplyErrors(); len(errs) != 0 {
		return cell, fmt.Errorf("divergence hazards recorded: %v", errs)
	}

	// Byte-identical convergence across every live replica — and, when
	// nothing acknowledged was lost, bit-identity with the plain
	// single-Publisher reference.
	var first []byte
	live := 0
	for _, id := range g.IDs() {
		b, err := g.ModelBytes(id)
		if err != nil {
			return cell, fmt.Errorf("%s did not come back: %w", id, err)
		}
		live++
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			return cell, fmt.Errorf("%s diverged after heal (%d vs %d bytes)", id, len(b), len(first))
		}
	}
	if live != chaosReplicas {
		return cell, fmt.Errorf("%d of %d replicas serving after heal", live, chaosReplicas)
	}
	if st.AckedLost == 0 {
		if st.Acked != uint64(n) {
			return cell, fmt.Errorf("acked %d of %d workload observations with zero loss", st.Acked, n)
		}
		if !bytes.Equal(first, want) {
			return cell, fmt.Errorf("replicated fleet diverged from the single-Publisher reference — replication is not transparent")
		}
	}

	// Zero lag everywhere after convergence.
	for _, rs := range st.Replicas {
		if rs.Role == replica.RoleFollower && rs.LagEpochs != 0 {
			return cell, fmt.Errorf("%s still lags %d epochs after converge", rs.ID, rs.LagEpochs)
		}
		if rs.Applied != st.Acked {
			return cell, fmt.Errorf("%s applied %d of %d acked after converge", rs.ID, rs.Applied, st.Acked)
		}
	}

	// --- Assertions derived from the steps and the plane ----------------

	if len(sc.steps) == 0 && !sc.netFaults {
		// Bounded mid-run staleness holds only in-process: socket
		// transports buffer in flight, which the inbox+batch bound does
		// not model.
		if pl == memPlane && cell.MaxLag > chaosInboxCapacity+chaosMaxBatch {
			return cell, fmt.Errorf("clean-run follower staleness %d exceeds inbox+batch bound %d (overflowed %d, catch-up %d)",
				cell.MaxLag, chaosInboxCapacity+chaosMaxBatch, cell.Overflowed, cell.Catchup)
		}
		if st.Failovers != 0 || st.FencedWrites != 0 || st.AckedLost != 0 {
			return cell, fmt.Errorf("clean scenario reported fault activity: %+v", st)
		}
	}
	if sc.has(actFailover) {
		if st.Failovers == 0 {
			return cell, fmt.Errorf("no failover recorded")
		}
		if st.FencedWrites == 0 {
			return cell, fmt.Errorf("stale handle was never fenced")
		}
		if cell.Catchup == 0 {
			return cell, fmt.Errorf("rejoin recovered no records")
		}
	}
	if sc.has(actPartition) {
		if cell.Catchup == 0 {
			return cell, fmt.Errorf("healed partition recovered no records")
		}
		if pl == netPlane && cell.Reconnects == 0 {
			return cell, fmt.Errorf("healed link never re-dialed")
		}
	}
	return cell, nil
}

// expectFenced asserts a demoted lineage's handle reports ErrFencedTerm.
func expectFenced(h *replica.Handle) error {
	p := geom.Point{1, 1}
	err := h.Observe(p, chaosReplCost(p))
	if !errors.Is(err, replica.ErrFencedTerm) {
		return fmt.Errorf("stale handle observe returned %v, want ErrFencedTerm", err)
	}
	return nil
}

// sampleFollowerLag returns the largest acked-minus-applied gap over the
// reachable followers right now.
func sampleFollowerLag(g *replica.Group) uint64 {
	st := g.Stats()
	var lag uint64
	for _, rs := range st.Replicas {
		if rs.Role != replica.RoleFollower || g.Transport().Cut(rs.ID) {
			continue
		}
		if st.Acked > rs.Applied {
			lag = max(lag, st.Acked-rs.Applied)
		}
	}
	return lag
}
