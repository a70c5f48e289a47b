package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mlq/internal/catalog"
	"mlq/internal/core"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/journal"
)

// Config assembles a replica group. NewModel must build identically
// configured empty models — byte-identical convergence depends on every
// replica folding the same observation sequence into the same tree shape.
type Config struct {
	// Replicas is the total group size including the primary. Minimum 1.
	Replicas int
	// Dir holds the per-term journals and the durable checkpoint file.
	Dir string
	// NewModel builds one replica's empty model. Required.
	NewModel func() (*core.MLQ, error)
	// Transport carries the replication stream. Nil builds a fault-free
	// MemTransport; pass one wired to a faults.Injector for chaos runs,
	// or any other Transport implementation for out-of-process fabrics.
	Transport Transport
	// MaxBatch configures each term's Publisher (default as in
	// core.PublisherConfig). It also bounds the acknowledged observations a
	// failover may lose, so chaos asserts against it.
	MaxBatch int
	// InboxCapacity bounds each follower's stream inbox (default 4096).
	InboxCapacity int
	// Telemetry, when non-nil, receives the mlq_replica_* metrics.
	Telemetry *GroupTelemetry
	// Events, when non-nil, is the causal event spine shared by every
	// lineage's publisher and every follower: send/recv/apply hops land on
	// it, and a failover fires its flight recorder.
	Events *events.Recorder
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// lineage is one term's write path: the Publisher, its journal, and the
// sequence arithmetic that maps journal positions to group-wide sequence
// numbers. It is immutable once stored; a checkpoint installs a fresh value.
type lineage struct {
	term  uint64
	base  uint64 // group seq at promotion: pub-local seq s is group seq base+s
	jbase uint64 // group seq the journal's first record follows (advances at checkpoints)
	jpath string
	pub   *core.Publisher
	jn    *journal.Journal
}

// Group is a replicated model fleet: one primary lineage accepting writes,
// N-1 followers applying the stream. All methods are safe for concurrent
// use; reads (Predict) never block behind writes or failovers.
type Group struct {
	cfg Config
	t   Transport
	tel *GroupTelemetry
	ev  *events.Recorder // causal event spine; nil = recording off

	// lin is the serving lineage (nil mid-failover). linMu makes the pair
	// (lineage value, journal file identity) consistent for fetchers: a
	// checkpoint rotates the journal and installs the new lineage under the
	// write lock, so a fetch holding the read lock never computes sequence
	// numbers with one generation's base against the other's file.
	lin   atomic.Pointer[lineage]
	linMu sync.RWMutex

	mu        sync.Mutex // serializes writes, failover, checkpoint, rejoin
	term      uint64
	primaryID string
	closed    bool

	nodes map[string]*node
	ids   []string // sorted; immutable after New

	ckptMu   sync.Mutex // serializes checkpoint file save/load
	ckptPath string

	fencedWrites atomic.Int64
	failovers    atomic.Int64
	ackedLost    atomic.Uint64

	applyErrMu sync.Mutex
	applyErrs  []string
}

// New builds the group: Replicas nodes, node "r0" promoted as the term-1
// primary, the rest following. The initial promotion writes the first
// durable checkpoint (an empty model at seq 0), so rejoin and deep catch-up
// always have a base to resync from.
func New(cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	if cfg.NewModel == nil {
		return nil, fmt.Errorf("replica: Config.NewModel is required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: Config.Dir is required")
	}
	t := cfg.Transport
	if t == nil {
		t = NewMemTransport(nil)
	}
	g := &Group{
		cfg:      cfg,
		t:        t,
		tel:      cfg.Telemetry,
		ev:       cfg.Events,
		nodes:    make(map[string]*node, cfg.Replicas),
		ckptPath: filepath.Join(cfg.Dir, "checkpoint.mlqc"),
	}
	for i := 0; i < cfg.Replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		m, err := cfg.NewModel()
		if err != nil {
			return nil, fmt.Errorf("replica: building model for %s: %w", id, err)
		}
		n := &node{
			id:       id,
			g:        g,
			idx:      i,
			role:     RoleFollower,
			mlq:      m,
			pending:  make(map[uint64]Record),
			inbox:    t.Register(id, cfg.InboxCapacity),
			pumpDone: make(chan struct{}),
		}
		n.publishViewLocked()
		g.nodes[id] = n
		g.ids = append(g.ids, id)
		go n.pump()
	}
	if g.tel != nil {
		g.tel.register(g)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.promoteLocked(g.ids[0], 0); err != nil {
		g.closeLocked()
		return nil, err
	}
	return g, nil
}

// promoteLocked turns a caught-up node into the primary of a fresh term:
// new journal, new Publisher wrapping the node's model, accepted-stream
// fan-out and epoch watermarks wired to the peers, a term announcement to
// everyone, and a durable checkpoint at the promotion sequence (which is
// what makes a later resync of an arbitrarily stale replica sound).
// Caller holds g.mu; the node's model must reflect exactly seqs 1..acked.
func (g *Group) promoteLocked(id string, acked uint64) error {
	g.term++
	term := g.term
	n := g.nodes[id]

	n.mu.Lock()
	model := n.mlq
	n.mlq = nil
	n.role = RolePrimary
	n.pending = make(map[uint64]Record)
	n.adoptTermLocked(term)
	n.applied = acked
	n.mu.Unlock()

	jpath := filepath.Join(g.cfg.Dir, fmt.Sprintf("term-%04d.mlqj", term))
	jn, err := journal.Create(jpath, journal.WithEvents(g.ev))
	if err != nil {
		return fmt.Errorf("replica: creating term %d journal: %w", term, err)
	}
	pub, err := core.NewPublisher(model, core.PublisherConfig{
		MaxBatch: g.cfg.MaxBatch,
		Journal:  jn,
		Events:   g.ev,
	})
	if err != nil {
		jn.Close()
		return fmt.Errorf("replica: starting term %d publisher: %w", term, err)
	}

	peers := make([]string, 0, len(g.ids)-1)
	peerIdx := make([]int, 0, len(g.ids)-1)
	for _, pid := range g.ids {
		if pid != id {
			peers = append(peers, pid)
			peerIdx = append(peerIdx, g.nodes[pid].idx)
		}
	}
	base := acked
	tr := g.t
	ev := g.ev
	// Accepted-observation fan-out: runs inside the publisher's accept
	// critical section, so stream order is exactly journal order. Send
	// errors are the data plane's problem (drops and partitions are what
	// journal catch-up repairs), never the accept path's. The send hop is
	// emitted per destination: the spine's replication-lag histograms
	// measure from mint to each peer's wire.
	pub.Subscribe(func(acc core.Accepted) {
		rec := Record{
			Seq: base + acc.Seq, Term: term, Point: acc.Point, Value: acc.Value,
			Cause: acc.Cause, MintNS: acc.MintNS,
		}
		for i, pid := range peers {
			_ = tr.Send(pid, Msg{Kind: KindRecord, Rec: rec})
			ev.EmitHop(events.SubReplica, events.KindSend, rec.Cause, rec.MintNS, peerIdx[i]+1, rec.Seq)
		}
	})
	// Publish watermarks: the primary's own read view plus the epoch marks
	// followers measure their staleness against.
	pub.OnPublish(func(epoch uint64, applied int64) {
		seq := base + uint64(applied)
		n.cur.Store(&View{Snap: pub.Snapshot(), Seq: seq, Epoch: epoch, Term: term})
		n.mu.Lock()
		n.applied = seq
		n.epoch = epoch
		n.mu.Unlock()
		for _, pid := range peers {
			_ = tr.Send(pid, Msg{Kind: KindEpoch, Term: term, Seq: seq, Epoch: epoch})
		}
	})

	n.mu.Lock()
	n.pub = pub
	n.mu.Unlock()
	n.cur.Store(&View{Snap: pub.Snapshot(), Seq: base, Epoch: 0, Term: term})

	for _, pid := range peers {
		_ = g.t.Send(pid, Msg{Kind: KindTerm, Term: term, Seq: base})
	}

	newLin := &lineage{term: term, base: base, jbase: base, jpath: jpath, pub: pub, jn: jn}
	if err := g.saveCheckpoint(pub, base, term); err != nil {
		return err
	}
	g.primaryID = id
	g.linMu.Lock()
	g.lin.Store(newLin)
	g.linMu.Unlock()
	return nil
}

// Handle is a fencing-token write capability: it carries the term it was
// issued under, and every write re-validates that term against the group.
// A handle issued before a failover keeps failing with ErrFencedTerm
// forever — exactly what a demoted primary's clients must see.
type Handle struct {
	g    *Group
	term uint64
}

// Handle issues a write capability for the current term.
func (g *Group) Handle() *Handle {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &Handle{g: g, term: g.term}
}

// Term returns the term this handle was issued under.
func (h *Handle) Term() uint64 { return h.term }

// Observe submits one observation through the handle's term. The write is
// serialized under the group lock so the publisher's accept order — and
// therefore the journal and the replication stream — is also the apply
// order on every replica; that is the invariant byte-identical convergence
// rests on. Superseded terms are fenced with ErrFencedTerm.
func (h *Handle) Observe(p geom.Point, actual float64) error {
	g := h.g
	g.mu.Lock()
	lin := g.lin.Load()
	if g.closed || lin == nil || h.term != g.term {
		g.mu.Unlock()
		g.fencedWrites.Add(1)
		if g.tel != nil {
			g.tel.fencedWrites.Inc()
		}
		return fmt.Errorf("%w: handle term %d, group term %d", ErrFencedTerm, h.term, g.term)
	}
	err := lin.pub.Observe(p, actual)
	g.mu.Unlock()
	if errors.Is(err, core.ErrPublisherClosed) {
		// The lineage died between our term check and the publisher — the
		// caller's capability is stale either way.
		g.fencedWrites.Add(1)
		if g.tel != nil {
			g.tel.fencedWrites.Inc()
		}
		return fmt.Errorf("%w: term %d lineage closed", ErrFencedTerm, h.term)
	}
	return err
}

// Failover demotes the current primary (simulating its death: its publisher
// drains and closes, its node goes down) and promotes the most-caught-up
// reachable follower under the next term. The new primary first recovers
// every acknowledged observation it is missing from the demoted lineage's
// durable journal, so in the common case a failover loses nothing; the
// hard bound is one publisher batch (MaxBatch), reported via AckedLost.
// The promotion is deterministic: max applied sequence, ties to the
// lexicographically smallest id. Returns the new primary's id.
func (g *Group) Failover() (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return "", fmt.Errorf("replica: group is closed")
	}
	old := g.lin.Load()
	if old == nil {
		return "", ErrNoPrimary
	}

	// Fence first: fetches and writes fail fast while the group is between
	// lineages.
	g.linMu.Lock()
	g.lin.Store(nil)
	g.linMu.Unlock()

	acked := old.base + old.pub.AcceptedSeq()
	if err := old.pub.Close(); err != nil {
		g.recordApplyErr(g.primaryID, acked, err)
	}
	_ = old.jn.Close()

	oldID := g.primaryID
	on := g.nodes[oldID]
	on.mu.Lock()
	on.role = RoleDown
	on.pub = nil
	on.mlq = nil
	on.mu.Unlock()
	on.cur.Store(nil)

	// Drain every follower's inbox so applied counts are final before the
	// promotion decision, and no held-back reordered record outlives the
	// stream that delayed it.
	for _, id := range g.ids {
		n := g.nodes[id]
		n.mu.Lock()
		role := n.role
		n.mu.Unlock()
		if role != RoleFollower {
			continue
		}
		g.t.FlushHeld(id)
		if done, err := g.t.Barrier(id); err == nil {
			<-done
		}
	}

	best, bestApplied := "", uint64(0)
	for _, id := range g.ids {
		n := g.nodes[id]
		n.mu.Lock()
		role, applied := n.role, n.applied
		n.mu.Unlock()
		if role != RoleFollower || g.t.Cut(id) {
			continue
		}
		if best == "" || applied > bestApplied {
			best, bestApplied = id, applied
		}
	}
	if best == "" {
		return "", fmt.Errorf("replica: no reachable follower to promote (term %d)", old.term)
	}

	// Recover the gap from the demoted lineage's durable journal: the
	// process died, its disk did not.
	bn := g.nodes[best]
	if err := bn.catchUpTo(acked, old); err != nil {
		g.recordApplyErr(best, acked, err)
	}
	bn.mu.Lock()
	promoteSeq := bn.applied
	bn.mu.Unlock()
	if acked > promoteSeq {
		g.ackedLost.Add(acked - promoteSeq)
	}

	if err := g.promoteLocked(best, promoteSeq); err != nil {
		return "", err
	}
	g.failovers.Add(1)
	if g.tel != nil {
		g.tel.failovers.Inc()
	}
	// Failover is a flight-recorder trigger: the black-box dump freezes
	// what every subsystem was doing when the primary died.
	g.ev.Emit(events.SubReplica, events.KindFailover, 0, old.term, g.term)
	g.ev.Trigger("failover")
	return best, nil
}

// Rejoin resurrects a down replica as a follower: heal its partition,
// discard its stale inbox, rebuild from the durable checkpoint, then replay
// the journal suffix up to the primary's acknowledged sequence. The replica
// serves reads again only after it is fully caught up.
func (g *Group) Rejoin(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("replica: group is closed")
	}
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("replica: unknown replica %q", id)
	}
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role != RoleDown {
		return fmt.Errorf("replica: %s is %s, only a down replica can rejoin", id, role)
	}
	lin := g.lin.Load()
	if lin == nil {
		return ErrNoPrimary
	}
	g.t.Heal(id)
	// Stale stream traffic queued while the node was down is drained (and
	// discarded by the down-role pump) before the rebuild.
	if done, err := g.t.Barrier(id); err == nil {
		<-done
	}
	if err := n.resyncFromCheckpoint(); err != nil {
		return fmt.Errorf("replica: %s rejoin resync: %w", id, err)
	}
	n.mu.Lock()
	n.role = RoleFollower
	n.mu.Unlock()
	// No writes can interleave here (they need g.mu), so catching up to the
	// current acknowledged sequence leaves the rejoiner fully current.
	acked := lin.base + lin.pub.AcceptedSeq()
	if err := n.catchUpTo(acked, nil); err != nil {
		return fmt.Errorf("replica: %s rejoin catch-up: %w", id, err)
	}
	return nil
}

// Checkpoint persists the primary's current model durably and truncates the
// lineage's journal: every journaled observation is now covered by the
// checkpoint, and followers too stale for the truncated journal resync from
// it (ErrCompacted → checkpoint + suffix). The journal rotation and the
// lineage's new sequence base are installed atomically with respect to
// concurrent catch-up fetches.
func (g *Group) Checkpoint() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("replica: group is closed")
	}
	lin := g.lin.Load()
	if lin == nil {
		return ErrNoPrimary
	}
	if err := lin.pub.Flush(); err != nil {
		return fmt.Errorf("replica: checkpoint flush: %w", err)
	}
	acked := lin.base + lin.pub.AcceptedSeq()
	if err := g.saveCheckpoint(lin.pub, acked, lin.term); err != nil {
		return err
	}
	next := &lineage{term: lin.term, base: lin.base, jbase: acked, jpath: lin.jpath, pub: lin.pub, jn: lin.jn}
	g.linMu.Lock()
	defer g.linMu.Unlock()
	if err := lin.jn.Reset(); err != nil {
		return fmt.Errorf("replica: checkpoint journal reset: %w", err)
	}
	g.lin.Store(next)
	return nil
}

// Converge quiesces the group and drives every live follower to the
// primary's acknowledged sequence: flush the primary, barrier-drain each
// follower's stream inbox, then journal-fetch whatever is still missing.
// After a nil return, every live replica's model reflects exactly the
// acknowledged prefix — the state the chaos experiment compares bytes over.
func (g *Group) Converge() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("replica: group is closed")
	}
	lin := g.lin.Load()
	if lin == nil {
		return ErrNoPrimary
	}
	if err := lin.pub.Flush(); err != nil {
		return fmt.Errorf("replica: converge flush: %w", err)
	}
	acked := lin.base + lin.pub.AcceptedSeq()
	for _, id := range g.ids {
		n := g.nodes[id]
		n.mu.Lock()
		role := n.role
		n.mu.Unlock()
		if role != RoleFollower {
			continue
		}
		g.t.FlushHeld(id)
		if done, err := g.t.Barrier(id); err == nil {
			<-done
		}
		if err := n.catchUpTo(acked, nil); err != nil {
			return fmt.Errorf("replica: converge: %w", err)
		}
	}
	return nil
}

// Snapshot returns the raw bytes a cold follower needs to bootstrap: the
// durable catalog checkpoint file plus the serving lineage's journal suffix.
// It is the structural implementation of nettransport.SnapshotSource — the
// snapshot-shipping RPC chunks exactly this pair over the wire. The journal
// is read while the publisher may still be appending; the copy is a valid
// prefix (the journal format tolerates a torn tail), and whatever it misses
// the stream or a later catch-up delivers.
func (g *Group) Snapshot() (ckpt, jnl []byte, err error) {
	g.ckptMu.Lock()
	ckpt, err = os.ReadFile(g.ckptPath)
	g.ckptMu.Unlock()
	if err != nil {
		return nil, nil, fmt.Errorf("replica: reading checkpoint for bootstrap: %w", err)
	}
	g.linMu.RLock()
	defer g.linMu.RUnlock()
	lin := g.lin.Load()
	if lin == nil {
		return nil, nil, ErrNoPrimary
	}
	jnl, err = os.ReadFile(lin.jpath)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: reading journal for bootstrap: %w", err)
	}
	return ckpt, jnl, nil
}

// fetch serves a follower's catch-up request against the serving lineage's
// journal. The read lock keeps the lineage's sequence base and the journal
// file it describes consistent against a concurrent checkpoint rotation.
func (g *Group) fetch(requester string, from uint64, max int) ([]Record, error) {
	if g.t.Cut(requester) {
		return nil, ErrPartitioned
	}
	g.linMu.RLock()
	defer g.linMu.RUnlock()
	lin := g.lin.Load()
	if lin == nil {
		return nil, ErrNoPrimary
	}
	return g.fetchLineage(lin, from, max)
}

// fetchLineage reads records [from, from+max) from a lineage's journal,
// reconstructing group sequence numbers from the journal position. max <= 0
// means "everything durable so far".
func (g *Group) fetchLineage(lin *lineage, from uint64, max int) ([]Record, error) {
	if from <= lin.jbase {
		return nil, ErrCompacted
	}
	tr, err := journal.OpenTail(lin.jpath)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	skip := int(from - lin.jbase - 1)
	if skip > 0 {
		skipped, err := tr.SkipRecords(skip)
		if skipped < skip {
			if err == journal.ErrRotated {
				// The journal rotated under the path while we were opening
				// it: the records live in the checkpoint now.
				return nil, ErrCompacted
			}
			return nil, nil // the journal does not hold from yet
		}
	}
	if max <= 0 {
		max = 1 << 20
	}
	out := make([]Record, 0, 64)
	for len(out) < max {
		rec, err := tr.Next()
		if err == journal.ErrNoRecord || err == journal.ErrRotated {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, Record{
			Seq:   from + uint64(len(out)),
			Term:  lin.term,
			Point: geom.Point(rec.Point),
			Value: rec.Value,
		})
	}
	return out, nil
}

// saveCheckpoint writes the durable checkpoint: a one-entry catalog whose
// entry name encodes the covered sequence and term, and whose model blob is
// the publisher's current snapshot.
func (g *Group) saveCheckpoint(pub *core.Publisher, seq, term uint64) error {
	cat := catalog.New()
	name := checkpointName(seq, term)
	if err := cat.Put(name, pub, nil); err != nil {
		return fmt.Errorf("replica: assembling checkpoint: %w", err)
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	if err := catalog.SaveFile(g.ckptPath, cat); err != nil {
		return fmt.Errorf("replica: saving checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads the durable checkpoint back: the model plus the
// sequence/term it covers.
func (g *Group) loadCheckpoint() (*core.MLQ, uint64, uint64, error) {
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	cat, _, err := catalog.LoadFile(g.ckptPath)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: loading checkpoint: %w", err)
	}
	names := cat.Names()
	if len(names) != 1 {
		return nil, 0, 0, fmt.Errorf("replica: checkpoint holds %d entries, want 1", len(names))
	}
	seq, term, err := parseCheckpointName(names[0])
	if err != nil {
		return nil, 0, 0, err
	}
	e, _ := cat.Get(names[0])
	m, ok := e.CPU.(*core.MLQ)
	if !ok {
		return nil, 0, 0, fmt.Errorf("replica: checkpoint entry is %T, want *core.MLQ", e.CPU)
	}
	return m, seq, term, nil
}

// checkpointName encodes the covered sequence and term into the catalog
// entry name, so the checkpoint is self-describing without a side file.
func checkpointName(seq, term uint64) string {
	return fmt.Sprintf("model@seq=%d;term=%d", seq, term)
}

func parseCheckpointName(name string) (seq, term uint64, err error) {
	n, err := fmt.Sscanf(name, "model@seq=%d;term=%d", &seq, &term)
	if err != nil || n != 2 {
		return 0, 0, fmt.Errorf("replica: malformed checkpoint entry name %q", name)
	}
	return seq, term, nil
}

// recordApplyErr remembers a divergence hazard (a record one replica failed
// to apply) for the harness to surface; the chaos experiment fails the run
// if any were recorded.
func (g *Group) recordApplyErr(id string, seq uint64, err error) {
	g.applyErrMu.Lock()
	defer g.applyErrMu.Unlock()
	if len(g.applyErrs) < 16 {
		g.applyErrs = append(g.applyErrs, fmt.Sprintf("%s@%d: %v", id, seq, err))
	}
}

// ApplyErrors returns the recorded divergence hazards (empty in a healthy
// run).
func (g *Group) ApplyErrors() []string {
	g.applyErrMu.Lock()
	defer g.applyErrMu.Unlock()
	return append([]string(nil), g.applyErrs...)
}

// Predict serves a read from one replica's current view: a single atomic
// load, never blocked by writes, failovers, or other readers. ok is false
// while the replica is down or its model is empty.
func (g *Group) Predict(id string, p geom.Point) (float64, bool) {
	n, ok := g.nodes[id]
	if !ok {
		return 0, false
	}
	return n.Predict(p)
}

// View returns one replica's current read state (nil while down).
func (g *Group) View(id string) *View {
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	return n.view()
}

// ModelBytes serializes one replica's model for convergence comparison.
// The primary flushes first, so its bytes cover everything acknowledged.
func (g *Group) ModelBytes(id string) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("replica: unknown replica %q", id)
	}
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	var buf bytes.Buffer
	switch role {
	case RolePrimary:
		lin := g.lin.Load()
		if lin == nil {
			return nil, ErrNoPrimary
		}
		if err := lin.pub.Flush(); err != nil {
			return nil, err
		}
		if _, err := lin.pub.Snapshot().WriteTo(&buf); err != nil {
			return nil, err
		}
	case RoleFollower:
		n.mu.Lock()
		_, err := n.mlq.WriteTo(&buf)
		n.mu.Unlock()
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("replica: %s is down", id)
	}
	return buf.Bytes(), nil
}

// IDs returns the replica ids, sorted.
func (g *Group) IDs() []string { return append([]string(nil), g.ids...) }

// PrimaryID returns the current primary's id.
func (g *Group) PrimaryID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.primaryID
}

// Term returns the current term.
func (g *Group) Term() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.term
}

// Transport exposes the group's transport (the chaos harness partitions and
// inspects it).
func (g *Group) Transport() Transport { return g.t }

// GroupStats is the group's point-in-time accounting.
type GroupStats struct {
	Term         uint64
	Primary      string
	Acked        uint64 // acknowledged observation high-water mark
	AckedLost    uint64 // acknowledged observations lost across all failovers
	Failovers    int64
	FencedWrites int64
	Replicas     []ReplicaStats
	Transport    TransportStats
}

// Stats snapshots the group.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	term, primary := g.term, g.primaryID
	var acked uint64
	if lin := g.lin.Load(); lin != nil {
		acked = lin.base + lin.pub.AcceptedSeq()
	}
	g.mu.Unlock()
	st := GroupStats{
		Term:         term,
		Primary:      primary,
		Acked:        acked,
		AckedLost:    g.ackedLost.Load(),
		Failovers:    g.failovers.Load(),
		FencedWrites: g.fencedWrites.Load(),
		Transport:    g.t.Stats(),
	}
	for _, id := range g.ids {
		st.Replicas = append(st.Replicas, g.nodes[id].stats())
	}
	sortStats(st.Replicas)
	return st
}

// Close shuts the group down: the lineage's publisher drains and closes,
// the transport closes every inbox, and all pumps exit.
func (g *Group) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closeLocked()
}

func (g *Group) closeLocked() error {
	if g.closed {
		return nil
	}
	g.closed = true
	var first error
	if lin := g.lin.Load(); lin != nil {
		g.linMu.Lock()
		g.lin.Store(nil)
		g.linMu.Unlock()
		if err := lin.pub.Close(); err != nil && first == nil {
			first = err
		}
		if err := lin.jn.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.t.Close()
	for _, id := range g.ids {
		<-g.nodes[id].pumpDone
	}
	return first
}
